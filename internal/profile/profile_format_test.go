package profile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dnnfusion/internal/ops"
)

// On-disk format coverage: a file of any version but FormatVersion fails
// with the typed error, and saving a loaded file back is byte-stable.

// v6File is a database in the last format before FormatVersion 7: the same
// latency and schedule tables plus a "plans" section of measured-tuning
// winners, which version 7 no longer has.
const v6File = `{
 "version": 6,
 "entries": {"combo": 1.25},
 "schedules": {"sched|dev|m=16,n=96,k=64": {"schedule": {"RowTile": 8, "ColPanel": 96}}},
 "plans": {"plan|dev|fp=00f1e2d3c4b5a697|b=1|chain=true": {"partition": [0, 1, 1], "schedules": [{}, {}], "measured_ns": 12345, "measured_runs": 7}}
}`

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
	if !bytes.Contains(b1, []byte(`"version": 7`)) || bytes.Contains(b1, []byte(`"plans"`)) {
		t.Errorf("saved database is not format 7 without a plans section:\n%s", b1)
	}

	// A version-6 file holds a plans section this format cannot carry. It
	// is refused whole, so no Save of a half-loaded database can erase it.
	old := writeFixture(t, "v6.json", v6File)
	_, err = Load(old)
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Version != 6 || ve.Path != old {
		t.Fatalf("loading a v6 file: error %v, want a *VersionError for version 6 at %s", err, old)
	}
	if got, err := os.ReadFile(old); err != nil || string(got) != v6File {
		t.Errorf("refused v6 file changed on disk: %v", err)
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
