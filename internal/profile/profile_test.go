package profile

import (
	"testing"

	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

func sampleNodes(t *testing.T) []*graph.Node {
	t.Helper()
	g := graph.New("p")
	x := g.AddInput("x", tensor.Of(2, 3))
	a := g.Apply1(ops.NewRelu(), x)
	b := g.Apply1(ops.NewExp(), a)
	g.MarkOutput(b)
	return g.Nodes
}

func TestLookupInsert(t *testing.T) {
	db := New()
	if _, ok := db.Lookup("k"); ok {
		t.Fatal("empty db returned a hit")
	}
	db.Insert("k", 1.5)
	v, ok := db.Lookup("k")
	if !ok || v != 1.5 {
		t.Fatalf("Lookup = %v, %v", v, ok)
	}
	db.Insert("k", 2.5)
	if v, _ := db.Lookup("k"); v != 2.5 || db.Len() != 1 {
		t.Errorf("re-insert: Lookup = %v, Len = %d, want 2.5, 1", v, db.Len())
	}
}

func TestKeyForIsStructural(t *testing.T) {
	const dev = "Snapdragon 865 CPU"
	n1 := sampleNodes(t)
	n2 := sampleNodes(t) // fresh graph, same structure
	if KeyFor(dev, n1) != KeyFor(dev, n2) {
		t.Error("structurally identical node lists have different keys")
	}
	// Order independence: a combination is a set, not a schedule.
	rev := []*graph.Node{n1[1], n1[0]}
	if KeyFor(dev, n1) != KeyFor(dev, rev) {
		t.Error("key depends on node order")
	}
	// Different shapes must differ.
	g := graph.New("p2")
	x := g.AddInput("x", tensor.Of(4, 4))
	a := g.Apply1(ops.NewRelu(), x)
	b := g.Apply1(ops.NewExp(), a)
	g.MarkOutput(b)
	if KeyFor(dev, n1) == KeyFor(dev, g.Nodes) {
		t.Error("different shapes share a key")
	}
	// A latency is a property of the device it was measured on.
	if KeyFor(dev, n1) == KeyFor("Adreno 650 GPU", n1) {
		t.Error("different devices share a key")
	}
}
