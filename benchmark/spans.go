package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a module's public function, recorded by the
// benchmark around the call. Start and End are nanoseconds since the tracer
// was created; Parent is the ID of the span that caused this one (-1 for a
// root); spans of one request share Request.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// maxSpansPerName bounds memory: a microsecond kernel loop makes millions
// of calls, and the first few thousand describe it as well as all of them.
// Calls past the cap are still timed; they are counted in dropped.
const maxSpansPerName = 2048

// tracer keeps spans in memory until write. Concurrent clients record
// into it, so record locks.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	perName map[string]int
	dropped map[string]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), perName: map[string]int{}, dropped: map[string]int{}}
}

// record stores a finished call and returns its span ID, or -1 when the
// name is past its cap.
func (t *tracer) record(name string, parent, request int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.perName[name] >= maxSpansPerName {
		t.dropped[name]++
		return -1
	}
	t.perName[name]++
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent, Request: request,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// skip counts calls a hot loop timed but did not hand to record: past the
// cap a loop stops calling record, so the calls it still times stay clean.
func (t *tracer) skip(name string, calls int) {
	if calls > 0 {
		t.mu.Lock()
		t.dropped[name] += calls
		t.mu.Unlock()
	}
}

// open reserves a span for a call that has children, so they can name it as
// their parent before it ends; close stamps its end.
func (t *tracer) open(name string, parent, request int) int {
	now := time.Now()
	return t.record(name, parent, request, now, now)
}

func (t *tracer) close(id int) {
	if id >= 0 {
		t.mu.Lock()
		t.spans[id].End = time.Since(t.t0).Nanoseconds()
		t.mu.Unlock()
	}
}

// call times fn as a leaf span and returns its duration.
func (t *tracer) call(name string, parent, request int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(name, parent, request, start, end)
	return end.Sub(start)
}

// selfTimes maps each span ID to its duration minus the part of that
// interval its direct children cover (overlapping children count once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// traceFile is the on-disk form of one workload's traced pass.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
	// SelfNsByName sums self time per span name: where the traced pass's
	// time went, layer by layer.
	SelfNsByName map[string]int64 `json:"self_ns_by_name"`
	Dropped      map[string]int   `json:"dropped_past_cap"`
}

// write stores the spans as dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	byName := map[string]int64{}
	for id, ns := range selfTimes(t.spans) {
		byName[t.spans[id].Name] += ns
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans, SelfNsByName: byName, Dropped: t.dropped})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
