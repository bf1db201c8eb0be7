package main

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("one sample: p90 = %v, want 7", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("no samples: p50 = %v, want NaN", got)
	}
	if got := median([]float64{9, 1, 5, 3}); got != 3 {
		t.Errorf("median of four = %v, want the lower middle 3", got)
	}
}

func TestLowSamples(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{25, 90, true}, {99, 90, true}, {100, 90, false}, {20, 50, false}, {19, 50, true}, {999, 99, true}, {1000, 99, false}} {
		if got := lowSamples(c.n, c.p); got != c.want {
			t.Errorf("lowSamples(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// A metric is the median over the slices of the slice's percentile and a
// rate the median of the slices' rates, so one stalled slice moves neither.
func TestSlicedMedianIgnoresOneStalledSlice(t *testing.T) {
	win := func(elapsed time.Duration, ms ...int) *window {
		w := &window{elapsed: elapsed}
		for _, m := range ms {
			w.dur = append(w.dur, time.Duration(m)*time.Millisecond)
		}
		return w
	}
	var s sliced
	s.add(win(time.Second, 10, 10, 10, 10, 20))
	s.add(win(time.Second, 11, 11, 11, 11, 21))
	s.add(win(5*time.Second, 900, 900, 900, 900, 900)) // a stall
	if got := s.metric(s.p50, 50); got.Value != 11 || got.Samples != 15 || !got.LowSamples {
		t.Errorf("p50 = %+v, want value 11 over 15 samples, flagged low", got)
	}
	if got := median(s.p90); got != 21 {
		t.Errorf("p90 = %v, want 21", got)
	}
	if got := median(s.rate); got != 5 {
		t.Errorf("rate = %v/s, want 5 (the stalled slice ran at 1/s)", got)
	}
	if got := s.sumMs; got != 60+65+4500 {
		t.Errorf("sumMs = %v", got)
	}
}

// A scaler divides every sample of a stretch, and the stretch itself, by one
// slowness, and keeps what the samples summed to before.
func TestScalerScalesSamplesAndElapsedAlike(t *testing.T) {
	win := &window{}
	sc := newScaler(win)
	start := sc.segStart
	win.dur = append(win.dur, 10*time.Millisecond, 30*time.Millisecond)
	sc.tick(start.Add(calibEvery - 1))
	if sc.from != 0 || win.elapsed != 0 {
		t.Fatal("tick calibrated before calibEvery had passed")
	}
	sc.tick(start.Add(40 * time.Millisecond).Add(calibEvery))
	by := float64(40*time.Millisecond+calibEvery) / float64(win.elapsed)
	if sc.from != 2 || win.rawSum != 40*time.Millisecond || by < 0.2 || by > 20 {
		t.Fatalf("after a calibration: from %d, rawSum %v, slowness %v", sc.from, win.rawSum, by)
	}
	for i, raw := range []time.Duration{10 * time.Millisecond, 30 * time.Millisecond} {
		if got := float64(raw) / float64(win.dur[i]); math.Abs(got-by) > 1e-6*by {
			t.Errorf("sample %d scaled by %v, the stretch by %v", i, got, by)
		}
	}
	win.dur = append(win.dur, 5*time.Millisecond)
	sc.flush(time.Now())
	if sc.from != 3 || win.rawSum != 45*time.Millisecond || win.dur[0] > win.dur[1] {
		t.Errorf("after flush: from %d, rawSum %v, samples %v", sc.from, win.rawSum, win.dur)
	}
}

func TestWorseByBothDirections(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	for _, c := range []struct {
		better string
		a, b   float64
		want   float64
	}{
		{"lower", 100, 111, 0.11},
		{"lower", 100, 90, -0.10},
		{"higher", 100, 89, 0.11},
		{"higher", 100, 125, -0.25},
		{"lower", 0, 0, 0},
	} {
		if got := worseBy(c.better, c.a, c.b); !near(got, c.want) {
			t.Errorf("worseBy(%s, %v, %v) = %v, want %v", c.better, c.a, c.b, got, c.want)
		}
	}
	if got := worseBy("lower", 0, 1); !math.IsInf(got, 1) {
		t.Errorf("from zero: %v, want +Inf", got)
	}
	// The A/A gate: a latency 11% up and a rate 11% down both exceed a 10%
	// bound, in whichever order the passes ran.
	a := &passResult{Metrics: map[string]metricValue{}}
	b := &passResult{Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		a.Metrics[d.Name] = metricValue{Value: 100}
		b.Metrics[d.Name] = metricValue{Value: 100}
	}
	if _, over := compare(a, b); over {
		t.Error("identical passes exceed a bound")
	}
	b.Metrics["http_rps"] = metricValue{Value: 100 * (1 - boundOf(t, "http_rps") - 0.01)}
	for _, pair := range [][2]*passResult{{a, b}, {b, a}} {
		floor, over := compare(pair[0], pair[1])
		if !over || floor["http_rps"] <= boundOf(t, "http_rps") || floor["load_ms"] != 0 {
			t.Errorf("a rate past its bound was not caught: floor %v", floor)
		}
	}
}

func boundOf(t *testing.T, name string) float64 {
	t.Helper()
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Bound
		}
	}
	t.Fatalf("no end-to-end metric %q", name)
	return 0
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "load", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "a", Start: 10, End: 30, Parent: 0},
		{ID: 2, Name: "b", Start: 20, End: 50, Parent: 0}, // overlaps a: counted once
		{ID: 3, Name: "c", Start: 60, End: 70, Parent: 0},
		{ID: 4, Name: "d", Start: 90, End: 130, Parent: 0}, // clipped to the parent
		{ID: 5, Name: "leaf", Start: 22, End: 28, Parent: 2},
		{ID: 6, Name: "other root", Start: 200, End: 205, Parent: -1},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{0: 100 - (40 + 10 + 10), 1: 20, 2: 30 - 6, 3: 10, 4: 40, 5: 6, 6: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d (%s) = %d, want %d", id, spans[id].Name, self[id], want)
		}
	}
}

func TestTracerCapsSpansPerName(t *testing.T) {
	tr := newTracer()
	now := time.Now()
	for i := 0; i < maxSpansPerName+5; i++ {
		tr.record("hot", -1, i, now, now)
	}
	root := tr.open("cold", -1, 0)
	tr.call("child", root, 0, func() {})
	tr.close(root)
	if len(tr.spans) != maxSpansPerName+2 || tr.dropped["hot"] != 5 {
		t.Errorf("%d spans kept, %d dropped; want %d and 5", len(tr.spans), tr.dropped["hot"], maxSpansPerName+2)
	}
	if child := tr.spans[len(tr.spans)-1]; child.Parent != root || tr.spans[root].End < child.End {
		t.Errorf("child %+v is not inside its parent %+v", child, tr.spans[root])
	}
}

// The program under test only ever receives what the seed generates: the
// same seed must give the same bytes, another seed other bytes.
func TestWorkloadsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := w.generate(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.generate(7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := w.generate(8)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.onnx, b.onnx) {
			t.Errorf("%s: the same seed gave different ONNX bytes", w.name)
		}
		if bytes.Equal(a.onnx, c.onnx) {
			t.Errorf("%s: different seeds gave the same ONNX bytes", w.name)
		}
		if len(a.inputs) != inputsPerWorkload {
			t.Fatalf("%s: %d inputs, want %d", w.name, len(a.inputs), inputsPerWorkload)
		}
		for i := range a.inputs {
			ba, _ := encodeRequest(a.inputs[i])
			bb, _ := encodeRequest(b.inputs[i])
			bc, _ := encodeRequest(c.inputs[i])
			if !bytes.Equal(ba, bb) {
				t.Errorf("%s: the same seed gave different input %d", w.name, i)
			}
			if bytes.Equal(ba, bc) {
				t.Errorf("%s: different seeds gave the same input %d", w.name, i)
			}
			if i > 0 {
				if prev, _ := encodeRequest(a.inputs[i-1]); bytes.Equal(ba, prev) {
					t.Errorf("%s: inputs %d and %d are the same", w.name, i-1, i)
				}
			}
			if !matches(a.refs[i], b.refs[i]) {
				t.Errorf("%s: the same seed gave different reference outputs", w.name)
			}
		}
	}
}
