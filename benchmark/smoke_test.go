package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, m.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json names %d %s metrics, the benchmark reports %d", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end-to-end", m.EndToEnd, endToEnd)
	same("per-layer", m.PerLayer, perLayer)
}

// A smoke run: every named metric appears for every workload, as a number
// unless the workload cannot produce it, and nothing fails. One round of
// short slices; the encoder alone takes half a second per inference, so
// -short leaves it out.
func TestSmokeEveryMetricEveryWorkload(t *testing.T) {
	mayBeNA := map[string]bool{
		"fusion.nochain_ms_p50": true, "engine.mt_ms_p50": true, "engine.mt_speedup": true, "engine.batch8_us_per_req": true,
	}
	for _, w := range workloads {
		if testing.Short() && w.name == "encoder" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			e2e, err := endToEndPass(w, 1, 0.4, 1)
			if err != nil {
				t.Fatal(err)
			}
			layers, err := tracedPass(w, 1, 0.4, 1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				defs []metricDef
				res  *passResult
			}{{endToEnd, e2e}, {perLayer, layers}} {
				if c.res.Failed != 0 || c.res.Attempted == 0 {
					t.Errorf("%d of %d operations failed: %s", c.res.Failed, c.res.Attempted, c.res.Failure)
				}
				if len(c.res.Metrics) != len(c.defs) {
					t.Errorf("%d metrics reported, %d named", len(c.res.Metrics), len(c.defs))
				}
				for _, d := range c.defs {
					m, ok := c.res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s is missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s has unit %q, want %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) && !mayBeNA[d.Name], math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", d.Name, m.Value)
					}
				}
			}
			for _, d := range endToEnd {
				if e2e.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v, want a positive number", d.Name, e2e.Metrics[d.Name].Value)
				}
			}
			if w.name == "encoder" && math.IsNaN(layers.Metrics["fusion.nochain_ms_p50"].Value) {
				t.Error("the encoder has a contraction chain, yet fusion.nochain_ms_p50 is n/a")
			}
		})
	}
}
