package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnnfusion/internal/profile"
)

func runCmd(args ...string) (status int, stdout, stderr string) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

func TestExperimentTable3(t *testing.T) {
	status, out, _ := runCmd("-e", "table3")
	if status != 0 {
		t.Fatalf("exit %d, want 0", status)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 7 || !strings.HasPrefix(lines[1], `first\second`) {
		t.Fatalf("no 5x5 table header in:\n%s", out)
	}
	if cols := strings.Fields(lines[1])[1:]; len(cols) != 5 {
		t.Errorf("header has %d mapping-type columns, want 5: %q", len(cols), lines[1])
	}
	for _, row := range lines[2:7] {
		if f := strings.Fields(row); len(f) != 11 { // first, then 5 × (result, decision)
			t.Errorf("row %q has %d fields, want 11", row, len(f))
		}
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	status, out, errOut := runCmd("-e", "table3", "-e", "table9")
	if status != 2 || out != "" || strings.Count(errOut, "\n") != 1 || !strings.Contains(errOut, `"table9"`) {
		t.Errorf("unknown experiment: exit %d, stdout %q, stderr %q; want exit 2 and one stderr line", status, out, errOut)
	}
	// The measurement harness is gone: its flags are unknown, not ignored.
	for _, f := range []string{"-json", "-compare", "-threshold"} {
		if status, _, errOut := runCmd(f, "x"); status != 2 || !strings.Contains(errOut, "flag provided but not defined") {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 for an unknown flag", f, status, errOut)
		}
	}
}

// TestDBLoadPolicy: -db starts fresh from a missing file or one of another
// format version — a version-6 file with a measured-tuning "plans" section
// included, which no later Save could carry — and refuses, leaving the file
// untouched, anything else it cannot read, instead of overwriting it on exit.
func TestDBLoadPolicy(t *testing.T) {
	dir := t.TempDir()

	missing := filepath.Join(dir, "new.json")
	if status, _, errOut := runCmd("-e", "table3", "-db", missing); status != 0 {
		t.Fatalf("missing database: exit %d: %s", status, errOut)
	}
	if _, err := profile.Load(missing); err != nil {
		t.Errorf("database saved to a new path does not load: %v", err)
	}
	if saved, err := os.ReadFile(missing); err != nil || !bytes.Contains(saved, []byte(`"version": 7`)) {
		t.Errorf("database saved to a new path is not format 7: %v", err)
	}

	stale := filepath.Join(dir, "stale.json")
	v6 := `{"version":6,"entries":{"k":1},"plans":{"p":{"partition":[0,0],"schedules":[{}],"measured_ns":7,"measured_runs":1}}}`
	if err := os.WriteFile(stale, []byte(v6), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := profile.Load(stale); !errors.Is(err, profile.ErrVersion) {
		t.Fatalf("fixture is not a stale-version file: %v", err)
	}
	status, _, errOut := runCmd("-e", "table3", "-db", stale)
	if status != 0 || !strings.Contains(errOut, "starting fresh") {
		t.Errorf("stale database: exit %d, stderr %q; want a logged fresh start", status, errOut)
	}
	if db, err := profile.Load(stale); err != nil || db.Len() != 0 {
		t.Errorf("stale file was not replaced by a fresh database: %v", err)
	}
	if saved, err := os.ReadFile(stale); err != nil || bytes.Contains(saved, []byte(`"plans"`)) {
		t.Errorf("fresh database saved over the v6 file kept a plans section: %v", err)
	}

	corrupt := filepath.Join(dir, "corrupt.json")
	garbage := []byte(`{"version":`)
	if err := os.WriteFile(corrupt, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	status, out, errOut := runCmd("-e", "table3", "-db", corrupt)
	if status != 1 || out != "" || strings.Count(errOut, "\n") != 1 {
		t.Errorf("corrupt database: exit %d, stdout %q, stderr %q; want exit 1 and one stderr line", status, out, errOut)
	}
	if got, err := os.ReadFile(corrupt); err != nil || !bytes.Equal(got, garbage) {
		t.Errorf("corrupt database was overwritten: %q, %v", got, err)
	}
}
