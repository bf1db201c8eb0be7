// Package profile implements DNNFusion's profiling result database (§4.3):
// latencies of operator combinations keyed by device, operator types,
// attributes, and shapes. Yellow (fuse_depend) decisions in the fusion
// planner consult it; a hit avoids a measurement, which is what collapses
// the "Profiling" bar of Figure 9b. Here a measurement is the device cost
// model, which costs microseconds, so the database lives in memory only:
// share one DB across the compilations of a process to reuse its entries.
package profile

import (
	"sort"
	"strings"
	"sync"

	"dnnfusion/internal/graph"
)

// DB is a latency database. Safe for concurrent use.
type DB struct {
	mu      sync.Mutex
	entries map[string]float64
}

// New returns an empty database.
func New() *DB {
	return &DB{entries: map[string]float64{}}
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
	return v, ok
}

// Insert stores a measured latency.
func (db *DB) Insert(key string, latencyMs float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.entries[key] = latencyMs
}

// KeyFor canonicalizes a candidate fusion-block node list measured on the
// named device: the device, then the operator types, attributes, and
// input/output shapes, independent of value names, so the same combination
// measured in one model is reused in another on the same device — and never
// priced for another device.
func KeyFor(deviceName string, nodes []*graph.Node) string {
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
	return deviceName + "|" + strings.Join(parts, ";")
}
