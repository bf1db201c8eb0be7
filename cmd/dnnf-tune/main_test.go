package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dnnfusion"
	"dnnfusion/internal/profile"
)

// TestOpenDBStaleVersionStartsFresh: a -db file of another format version
// starts a fresh database that saves over it; a missing file does the
// same, and a corrupt one is an error.
func TestOpenDBStaleVersionStartsFresh(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "tuned.json")
	if err := os.WriteFile(stale, []byte(`{"version":5,"entries":{"k":1},"plans":{"p":{"chain_mask":1}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dnnfusion.LoadProfileDB(stale); !errors.Is(err, profile.ErrVersion) {
		t.Fatalf("fixture is not a stale-version file: %v", err)
	}
	db, err := openDB(stale)
	if err != nil {
		t.Fatalf("stale database was fatal: %v", err)
	}
	if db.Len() != 0 || db.PlanLen() != 0 {
		t.Errorf("stale file leaked %d entries, %d plans into the fresh database", db.Len(), db.PlanLen())
	}
	if err := db.Save(stale); err != nil {
		t.Fatal(err)
	}
	if _, err := dnnfusion.LoadProfileDB(stale); err != nil {
		t.Errorf("database saved over the stale file does not load: %v", err)
	}

	if db, err := openDB(filepath.Join(dir, "missing.json")); err != nil || db == nil {
		t.Errorf("missing database: %v, want a fresh one", err)
	}
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openDB(corrupt); err == nil {
		t.Error("corrupt database opened without error")
	}
}
