package onnx_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"dnnfusion/internal/core"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/models"
	"dnnfusion/internal/onnx"
)

// fusionFingerprint renders a compiled model's fusion plan as a canonical
// string: one line per block listing its node op names (sorted) and
// marking chain blocks. Two structurally identical plans render identically
// regardless of pointer identity.
func fusionFingerprint(c *core.Compiled) string {
	var lines []string
	for _, b := range c.Plan.Blocks {
		names := make([]string, len(b.Nodes))
		for i, n := range b.Nodes {
			names[i] = n.Op.Type()
		}
		sort.Strings(names)
		tag := ""
		if b.Chain != nil {
			tag = " chain"
		}
		lines = append(lines, strings.Join(names, "+")+tag)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestRoundTripChainRefusion: exporting a chain-bearing model to ONNX and
// importing it back must reproduce the fusion plan structurally — in
// particular the one contraction chain of each shape (attention, MLP) must
// re-fuse.
func TestRoundTripChainRefusion(t *testing.T) {
	for _, m := range []struct {
		name   string
		build  func() *graph.Graph
		chains int
	}{
		{"micro-attention", models.MicroAttention, 1},
		{"micro-mlp", models.MicroMLP, 1},
	} {
		t.Run(m.name, func(t *testing.T) {
			orig, err := core.Compile(m.build(), core.Defaults())
			if err != nil {
				t.Fatal(err)
			}
			if orig.Stats.ChainFusions != m.chains {
				t.Fatalf("source model fused %d chains, want %d", orig.Stats.ChainFusions, m.chains)
			}
			data, err := onnx.Export(m.build())
			if err != nil {
				t.Fatalf("export: %v", err)
			}
			back, err := onnx.Import(data)
			if err != nil {
				t.Fatalf("import: %v", err)
			}
			imported, err := core.Compile(back, core.Defaults())
			if err != nil {
				t.Fatalf("compile imported: %v", err)
			}
			if imported.Stats.ChainFusions != orig.Stats.ChainFusions {
				t.Errorf("imported model fused %d chains, original %d",
					imported.Stats.ChainFusions, orig.Stats.ChainFusions)
			}
			if of, bf := fusionFingerprint(orig), fusionFingerprint(imported); of != bf {
				t.Errorf("fusion plans differ structurally after round trip:\noriginal:\n%s\nimported:\n%s", of, bf)
			}
		})
	}
}

// TestImportTruncatedRawData: an initializer whose raw payload was
// truncated (by a whole number of float32s, so it still decodes) must be
// rejected as a corrupt model wrapping ErrImport, not imported with a
// silently short weight.
func TestImportTruncatedRawData(t *testing.T) {
	data, err := onnx.Export(models.MicroAttention())
	if err != nil {
		t.Fatal(err)
	}
	m, err := onnx.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	truncated := false
	for _, init := range m.Graph.Initializers {
		if len(init.Raw) >= 8 {
			init.Raw = init.Raw[:len(init.Raw)-4]
			truncated = true
			break
		}
	}
	if !truncated {
		t.Fatal("fixture has no raw-data initializer to corrupt")
	}
	_, err = onnx.Import(m.Marshal())
	if err == nil {
		t.Fatal("truncated raw tensor data imported without error")
	}
	if !errors.Is(err, onnx.ErrImport) {
		t.Errorf("error %v does not wrap ErrImport", err)
	}
	if !strings.Contains(fmt.Sprint(err), "elements for shape") {
		t.Errorf("error %q does not identify the element/shape mismatch", err)
	}
}
