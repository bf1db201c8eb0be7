package profile

import (
	"errors"
	"os"
	"path/filepath"
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
	if db.Hits != 1 || db.Misses != 1 || db.Measurements != 1 {
		t.Errorf("stats = %d/%d/%d, want 1/1/1", db.Hits, db.Misses, db.Measurements)
	}
	db.ResetStats()
	if db.Hits != 0 || db.Len() != 1 {
		t.Error("ResetStats should keep entries")
	}
}

func TestKeyForIsStructural(t *testing.T) {
	n1 := sampleNodes(t)
	n2 := sampleNodes(t) // fresh graph, same structure
	if KeyFor(n1) != KeyFor(n2) {
		t.Error("structurally identical node lists have different keys")
	}
	// Order independence: a combination is a set, not a schedule.
	rev := []*graph.Node{n1[1], n1[0]}
	if KeyFor(n1) != KeyFor(rev) {
		t.Error("key depends on node order")
	}
	// Different shapes must differ.
	g := graph.New("p2")
	x := g.AddInput("x", tensor.Of(4, 4))
	a := g.Apply1(ops.NewRelu(), x)
	b := g.Apply1(ops.NewExp(), a)
	g.MarkOutput(b)
	if KeyFor(n1) == KeyFor(g.Nodes) {
		t.Error("different shapes share a key")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := New()
	db.Insert("a", 1)
	db.Insert("b", 2.25)
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("loaded %d entries, want 2", back.Len())
	}
	if v, ok := back.Lookup("b"); !ok || v != 2.25 {
		t.Errorf("loaded b = %v, %v", v, ok)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

func TestScheduleCacheRoundTrip(t *testing.T) {
	db := New()
	db.Insert("latency", 3.5)
	key := ScheduleKey("Snapdragon 865 CPU", 128, 96, 64)
	want := KernelSchedule{Schedule: ops.Schedule{RowTile: 8, ColPanel: 96}}
	db.InsertSchedule(key, want)
	if db.ScheduleLen() != 1 {
		t.Fatalf("ScheduleLen = %d, want 1", db.ScheduleLen())
	}
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := back.LookupSchedule(key)
	if !ok || s != want {
		t.Errorf("round trip lost schedule: %+v, %v", s, ok)
	}
	if back.ScheduleHits != 1 || back.ScheduleMisses != 0 {
		t.Errorf("schedule counters = %d/%d, want 1/0", back.ScheduleHits, back.ScheduleMisses)
	}
	if _, ok := back.LookupSchedule("sched|other|m=1,n=1,k=1"); ok {
		t.Error("missing key should miss")
	}
	// Latency entries coexist with schedules across the round trip.
	if v, ok := back.Lookup("latency"); !ok || v != 3.5 {
		t.Errorf("latency entry lost: %v, %v", v, ok)
	}
}

// TestLoadStaleVersionRebuilds pins the stale-file policy: the database is
// a local cache, so a file of an older format version — here a version-6
// file with its measured-tuning plans — is refused with the typed error
// rather than migrated or loaded minus the section this format dropped, and
// a fresh database saved over it loads again.
func TestLoadStaleVersionRebuilds(t *testing.T) {
	for _, old := range []string{`{"version":1,"entries":{"k":2.5}}`, v6File} {
		path := filepath.Join(t.TempDir(), "stale.json")
		if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); !errors.Is(err, ErrVersion) {
			t.Fatalf("loading a stale file: error %v does not match ErrVersion", err)
		}
		db := New()
		db.InsertSchedule(ScheduleKey("dev", 1, 2, 3), KernelSchedule{Schedule: ops.Schedule{RowTile: 2, ColPanel: 8}})
		if err := db.Save(path); err != nil {
			t.Fatal(err)
		}
		back, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if back.ScheduleLen() != 1 || back.Len() != 0 {
			t.Errorf("rebuilt file holds %d schedules and %d latencies, want 1 and 0", back.ScheduleLen(), back.Len())
		}
	}
}

// TestChainScheduleCacheRoundTrip: chain-kernel schedule pairs live in the
// same table as single-kernel schedules, under their own task keys, and
// survive Save/Load alongside latency entries.
func TestChainScheduleCacheRoundTrip(t *testing.T) {
	db := New()
	db.Insert("latency", 1.5)
	db.InsertSchedule(ScheduleKey("dev", 8, 8, 8), KernelSchedule{Schedule: ops.Schedule{RowTile: 2, ColPanel: 8}})
	key := ChainScheduleKey("Snapdragon 865 CPU", 8, 8, 32, 8, 32, 8)
	pair := KernelSchedule{
		Schedule: ops.Schedule{RowTile: 8, ColPanel: 32},
		Producer: ops.Schedule{RowTile: 8, ColPanel: 8},
	}
	db.InsertSchedule(key, pair)
	if db.ScheduleLen() != 2 {
		t.Fatalf("ScheduleLen = %d, want 2", db.ScheduleLen())
	}
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := back.LookupSchedule(key)
	if !ok || got != pair {
		t.Errorf("round trip lost chain schedule: %+v, %v", got, ok)
	}
	if _, ok := back.LookupSchedule(ChainScheduleKey("dev", 1, 1, 1, 1, 1, 1)); ok {
		t.Error("missing chain key should miss")
	}
	if back.ScheduleLen() != 2 || back.Len() != 1 {
		t.Errorf("coexisting entries lost: %d schedules, %d latencies", back.ScheduleLen(), back.Len())
	}
}
