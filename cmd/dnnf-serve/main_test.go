package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dnnfusion"
	"dnnfusion/internal/profile"
)

// TestLoadProfileStaleVersionServesEmpty: a -profile file of another format
// version must not keep the server from starting — it is replaced by an
// empty database — while a corrupt file stays fatal.
func TestLoadProfileStaleVersionServesEmpty(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "stale.json")
	if err := os.WriteFile(stale, []byte(`{"version":5,"entries":{"k":1},"plans":{"p":{"chain_mask":1}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dnnfusion.LoadProfileDB(stale); !errors.Is(err, profile.ErrVersion) {
		t.Fatalf("fixture is not a stale-version file: %v", err)
	}
	db, err := loadProfile(stale)
	if err != nil {
		t.Fatalf("stale profile database was fatal: %v", err)
	}
	if db.Len() != 0 || db.PlanLen() != 0 {
		t.Errorf("stale file leaked %d entries, %d plans into the served database", db.Len(), db.PlanLen())
	}

	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadProfile(corrupt); err == nil || errors.Is(err, profile.ErrVersion) {
		t.Errorf("corrupt profile database: error = %v, want a non-version failure", err)
	}
	if _, err := loadProfile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing profile database loaded without error")
	}
}
