// Package profile implements DNNFusion's profiling result database (§4.3):
// latencies of operator combinations collected offline and keyed by
// operator types, attributes, and shapes. Yellow (fuse_depend) decisions in
// the fusion planner consult it; a hit avoids a measurement, which is what
// collapses the "Profiling" bar of Figure 9b. The database persists as JSON
// so it accumulates across models and compilations (the paper reports ~22K
// entries after compiling all 15 models). Alongside the latencies it caches
// the compiler's other per-shape decision: a table of selected kernel
// schedules. It is a local cache with no external producer, so the file
// format is not migrated: Load reads the current version only.
package profile

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
)

// DB is a latency and schedule database. Safe for concurrent use.
type DB struct {
	mu      sync.Mutex
	entries map[string]float64
	// schedules caches selected tile schedules per tuning task — a kernel
	// shape and device (ScheduleKey), or a chain's two shapes
	// (ChainScheduleKey) — so repeat compilations skip the selection: the
	// schedule half of Figure 9b's caching effect.
	schedules map[string]KernelSchedule

	// Hits/Misses count latency lookups; Measurements counts inserts that
	// came from fresh measurements (not a bulk load). ScheduleHits/
	// ScheduleMisses count schedule lookups the same way.
	Hits           int
	Misses         int
	Measurements   int
	ScheduleHits   int
	ScheduleMisses int
}

// New returns an empty database.
func New() *DB {
	return &DB{
		entries:   map[string]float64{},
		schedules: map[string]KernelSchedule{},
	}
}

// Len returns the number of stored entries.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.entries)
}

// Lookup returns the stored latency for key.
func (db *DB) Lookup(key string) (float64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	v, ok := db.entries[key]
	if ok {
		db.Hits++
	} else {
		db.Misses++
	}
	return v, ok
}

// Insert stores a measured latency.
func (db *DB) Insert(key string, latencyMs float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.entries[key]; !ok {
		db.Measurements++
	}
	db.entries[key] = latencyMs
}

// ResetStats clears the hit/miss/measurement counters but keeps entries.
func (db *DB) ResetStats() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.Hits, db.Misses, db.Measurements = 0, 0, 0
	db.ScheduleHits, db.ScheduleMisses = 0, 0
}

// ScheduleKey canonicalizes one heavy-kernel tuning task: device identity
// plus the GEMM-shape contraction dimensions. Kernels with the same shape
// on the same device share one tuned schedule across models.
func ScheduleKey(deviceName string, m, n, k int) string {
	return fmt.Sprintf("sched|%s|m=%d,n=%d,k=%d", deviceName, m, n, k)
}

// ChainScheduleKey canonicalizes one chain-kernel tuning task: device
// identity plus both contractions' GEMM shapes.
func ChainScheduleKey(deviceName string, pm, pn, pk, cm, cn, ck int) string {
	return fmt.Sprintf("chain|%s|p=%dx%dx%d,c=%dx%dx%d", deviceName, pm, pn, pk, cm, cn, ck)
}

// KernelSchedule is the tile schedule of one kernel — the record the
// schedule cache stores per task key. Producer is set only for a chain-fused kernel: it tiles the chain's
// first contraction, and Schedule the second.
type KernelSchedule struct {
	Schedule ops.Schedule `json:"schedule"`
	Producer ops.Schedule `json:"producer,omitzero"`
}

// LookupSchedule returns the cached schedule for a task key.
func (db *DB) LookupSchedule(key string) (KernelSchedule, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.schedules[key]
	if ok {
		db.ScheduleHits++
	} else {
		db.ScheduleMisses++
	}
	return s, ok
}

// InsertSchedule stores the schedule selected for a task key.
func (db *DB) InsertSchedule(key string, s KernelSchedule) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.schedules[key] = s
}

// ScheduleLen returns the number of cached schedules.
func (db *DB) ScheduleLen() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.schedules)
}

// KeyFor canonicalizes a candidate fusion-block node list: operator types,
// attributes, and input/output shapes, independent of value names, so the
// same combination measured in one model is reused in another.
func KeyFor(nodes []*graph.Node) string {
	parts := make([]string, 0, len(nodes))
	for _, n := range nodes {
		var sb strings.Builder
		sb.WriteString(n.Op.Type())
		if a := n.Op.AttrKey(); a != "" {
			sb.WriteString("[" + a + "]")
		}
		sb.WriteString("(")
		for i, in := range n.Inputs {
			if i > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(in.Shape.String())
		}
		sb.WriteString(")->")
		for i, out := range n.Outputs {
			if i > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(out.Shape.String())
		}
		parts = append(parts, sb.String())
	}
	sort.Strings(parts) // combination identity, not schedule identity
	return strings.Join(parts, ";")
}

// FormatVersion is the one on-disk format this build writes and reads.
const FormatVersion = 7

// ErrVersion reports a database file of any other format version, older
// or newer. Callers match it with errors.Is; the concrete *VersionError
// carries the offending path and version.
var ErrVersion = errors.New("profile: unsupported database version")

// VersionError is the typed failure for a database file whose version is
// not FormatVersion. The database is a local cache with no external
// producer, so a stale file is rebuilt rather than migrated; Load refuses
// it whole instead of loading the sections it happens to recognize (a
// subsequent Save would destroy the rest).
type VersionError struct {
	Path    string
	Version int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("profile: %s: version %d is not the supported version %d", e.Path, e.Version, FormatVersion)
}

func (e *VersionError) Unwrap() error { return ErrVersion }

// fileFormat is the on-disk representation.
type fileFormat struct {
	Version   int                       `json:"version"`
	Entries   map[string]float64        `json:"entries"`
	Schedules map[string]KernelSchedule `json:"schedules,omitempty"`
}

// Save writes the database as JSON, atomically and durably: the bytes land
// in a temporary file in the destination directory, are synced, and
// replace the target with os.Rename, so a concurrent reader (another
// process sharing the file) sees either the old complete database or the
// new one, never torn JSON, and a crash after the rename cannot leave a
// zero-length file behind. The marshalled form is canonical
// — map keys sort — so saving an unchanged database is byte-stable.
func (db *DB) Save(path string) error {
	db.mu.Lock()
	ff := fileFormat{
		Version:   FormatVersion,
		Entries:   make(map[string]float64, len(db.entries)),
		Schedules: make(map[string]KernelSchedule, len(db.schedules)),
	}
	for k, v := range db.entries {
		ff.Entries[k] = v
	}
	for k, v := range db.schedules {
		ff.Schedules[k] = v
	}
	db.mu.Unlock()
	data, err := json.MarshalIndent(ff, "", " ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// Load reads a database written by Save. A file of any version other than
// FormatVersion fails with a *VersionError.
func Load(path string) (*DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ff fileFormat
	if err := json.Unmarshal(data, &ff); err != nil {
		return nil, fmt.Errorf("profile: %s: %w", path, err)
	}
	if ff.Version != FormatVersion {
		return nil, &VersionError{Path: path, Version: ff.Version}
	}
	db := New()
	for k, v := range ff.Entries {
		db.entries[k] = v
	}
	for k, v := range ff.Schedules {
		db.schedules[k] = v
	}
	return db, nil
}
