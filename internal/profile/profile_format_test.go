package profile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dnnfusion/internal/ops"
)

// On-disk format coverage: a file of any version but FormatVersion fails
// with the typed error, and saving a loaded file back is byte-stable.

func writeFixture(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadUnknownFutureVersionFails(t *testing.T) {
	path := writeFixture(t, "v99.json", `{"version":99,"entries":{"k":1}}`)
	_, err := Load(path)
	if err == nil {
		t.Fatal("loading a future version succeeded")
	}
	if !errors.Is(err, ErrVersion) {
		t.Errorf("error %v does not match ErrVersion", err)
	}
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("error %T is not a *VersionError", err)
	}
	if ve.Version != 99 || ve.Path != path {
		t.Errorf("VersionError = %+v, want version 99 at %s", ve, path)
	}
}

func TestRoundTripByteStable(t *testing.T) {
	db := New()
	db.Insert("combo", 1.25)
	db.InsertSchedule(ScheduleKey("dev", 16, 96, 64), KernelSchedule{Schedule: ops.Schedule{RowTile: 8, ColPanel: 96}})
	pair := KernelSchedule{
		Schedule: ops.Schedule{RowTile: 8, ColPanel: 32},
		Producer: ops.Schedule{RowTile: 8, ColPanel: 8},
	}
	db.InsertSchedule(ChainScheduleKey("dev", 8, 8, 32, 8, 32, 8), pair)
	db.InsertPlan(PlanKey("dev", "00f1e2d3c4b5a697", 1, "chain=true,seeds=0,ops=40,in=24,priced=false"), TunedPlan{
		Partition:    []int{0, 1, 1, 2, 1},
		Schedules:    []KernelSchedule{{}, pair, {}},
		MeasuredNs:   12345,
		MeasuredRuns: 7,
	})
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.json")
	if err := db.Save(p1); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(p1)
	if err != nil {
		t.Fatal(err)
	}
	p2 := filepath.Join(dir, "b.json")
	if err := loaded.Save(p2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("round trip is not byte-stable:\n--- first\n%s\n--- second\n%s", b1, b2)
	}
}

func TestPlanRoundTrip(t *testing.T) {
	db := New()
	key := PlanKey("Snapdragon 865 CPU", "deadbeefdeadbeef", 8, "chain=true")
	tp := TunedPlan{Partition: []int{0, 0, 1}, MeasuredNs: 999, MeasuredRuns: 4, Analytical: true,
		Schedules: []KernelSchedule{{Schedule: ops.Schedule{RowTile: 1, ColPanel: 8}}, {}}}
	db.InsertPlan(key, tp)
	path := filepath.Join(t.TempDir(), "p.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := back.LookupPlan(key)
	if !ok {
		t.Fatal("plan lost in round trip")
	}
	if !reflect.DeepEqual(got, tp) {
		t.Errorf("plan mangled: %+v, stored %+v", got, tp)
	}
	if back.PlanHits != 1 || back.PlanMisses != 0 {
		t.Errorf("plan counters = %d/%d, want 1/0", back.PlanHits, back.PlanMisses)
	}
	if _, ok := back.LookupPlan(PlanKey("d", "0", 1, "")); ok {
		t.Error("missing plan key should miss")
	}
	if _, ok := back.LookupPlan(PlanKey("Snapdragon 865 CPU", "deadbeefdeadbeef", 8, "chain=false")); ok {
		t.Error("a plan tuned under one planner configuration was found under another")
	}

	// A v5 file named plans by planner inputs (a chain mask); it is refused
	// whole, not reinterpreted.
	old := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(old, []byte(`{"version":5,"entries":{},"plans":{"k":{"chain_mask":3,"measured_ns":7,"measured_runs":1}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(old); !errors.Is(err, ErrVersion) {
		t.Errorf("loading a v5 file: error %v does not match ErrVersion", err)
	}
}

// TestSaveAtomicReplace: Save must replace the destination atomically —
// no torn temp content at the destination path mid-write, and the temp
// file must not survive. (The rename guarantees a concurrent reader sees
// the old or the new complete file; this pins the mechanism.)
func TestSaveAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shared.json")
	db := New()
	db.Insert("a", 1)
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db.Insert("b", 2)
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "shared.json" {
			t.Errorf("stray file %q left next to the database", e.Name())
		}
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Errorf("replaced database has %d entries, want 2", back.Len())
	}
}
