package main

import (
	"bytes"
	"strings"
	"testing"
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
	// The measurement harness and the database file are gone: their flags
	// are unknown, not ignored.
	for _, f := range []string{"-json", "-compare", "-threshold", "-db"} {
		if status, _, errOut := runCmd(f, "x"); status != 2 || !strings.Contains(errOut, "flag provided but not defined") {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 for an unknown flag", f, status, errOut)
		}
	}
}
