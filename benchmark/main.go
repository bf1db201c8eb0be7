// Command benchmark is the repository's benchmark: four workloads, each
// generated from a seed, driven through the two paths users take — ONNX
// bytes → Import → Compile → Runner.Run, and bytes-in/bytes-out POST
// :predict against a real serve.Server on loopback — with tracing off for
// the end-to-end metrics and a separate traced pass for the per-layer ones.
// BENCHMARK.json at the repository root names the metrics, their bounds and
// the command; README.md in this directory says why each workload is here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
)

// environment is recorded with every result: numbers from boxes that differ
// here are not comparable.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// workloadResult is everything measured for one workload in one process.
type workloadResult struct {
	EndToEnd *passResult `json:"end_to_end,omitempty"`
	PerLayer *passResult `json:"per_layer,omitempty"`
	// Second and NoiseFloor are filled by -aa: the second end-to-end pass of
	// the same code, and how much worse each metric read on either pass than
	// on the other, as a share.
	Second     *passResult        `json:"end_to_end_second,omitempty"`
	NoiseFloor map[string]float64 `json:"noise_floor,omitempty"`
}

// resultsFile is what -json writes.
type resultsFile struct {
	Environment environment                `json:"environment"`
	Seed        uint64                     `json:"seed"`
	Seconds     float64                    `json:"seconds"`
	Workloads   map[string]*workloadResult `json:"workloads"`
}

// printPass prints every metric of one pass by name, with its unit.
func printPass(title string, defs []metricDef, p *passResult) {
	fmt.Printf("  %s\n", title)
	for _, d := range defs {
		m, ok := p.Metrics[d.Name]
		if !ok {
			fmt.Printf("    %-28s missing\n", d.Name)
			continue
		}
		line := fmt.Sprintf("    %-28s %14.6g %-10s", d.Name, m.Value, m.Unit)
		if math.IsNaN(m.Value) {
			line = fmt.Sprintf("    %-28s %14s %-10s", d.Name, "n/a", m.Unit)
		}
		if m.Samples > 0 {
			line += fmt.Sprintf(" samples=%d", m.Samples)
		}
		if m.LowSamples {
			line += " low_samples"
		}
		if d.Bound > 0 {
			line += fmt.Sprintf(" bound=%.0f%%", 100*d.Bound)
		}
		fmt.Println(line)
	}
	for _, name := range slices.Sorted(maps.Keys(p.Info)) {
		fmt.Printf("    (info) %-21s %14.6g\n", name, p.Info[name])
	}
	fmt.Printf("    attempted=%d failed=%d fail_share=%.6f\n", p.Attempted, p.Failed, float64(p.Failed)/float64(max(p.Attempted, 1)))
	if p.Failure != "" {
		fmt.Printf("    first failure: %s\n", p.Failure)
	}
}

// compare prints each end-to-end metric of two passes of the same code, the
// relative difference in the metric's worse direction, and its bound. It
// returns the noise floor and whether any bound was exceeded either way.
func compare(a, b *passResult) (map[string]float64, bool) {
	floor := map[string]float64{}
	exceeded := false
	fmt.Printf("  A/A: two end-to-end passes of the same code\n")
	for _, d := range endToEnd {
		va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
		diff := max(worseBy(d.Better, va, vb), worseBy(d.Better, vb, va))
		floor[d.Name] = diff
		verdict := "within"
		if diff > d.Bound {
			verdict = "EXCEEDS"
			exceeded = true
		}
		fmt.Printf("    %-16s A=%-12.6g B=%-12.6g diff=%6.2f%% bound=%3.0f%% %s\n", d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
	}
	return floor, exceeded
}

// resultLine is the one JSON object the last line of standard output holds.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// count folds one pass's operations into the line.
func (l *resultLine) count(p *passResult) {
	l.Attempted += p.Attempted
	l.Failed += p.Failed
}

// add folds one pass into the line. prefix separates workloads when more
// than one runs in a process.
func (l *resultLine) add(prefix string, p *passResult) {
	l.count(p)
	for name, m := range p.Metrics {
		v := m.Value
		if math.IsNaN(v) {
			v = 0 // not applicable; see notApplicable
		}
		l.Metrics[prefix+name] = lineMetric{v, m.Unit}
	}
}

func run() (int, error) {
	name := flag.String("workload", "all", "workload to run: cnn, encoder, pointwise, head, or all")
	seed := flag.Uint64("seed", 1, "seed of the generated weights and inputs")
	seconds := flag.Float64("seconds", 20, "seconds each pass measures for, per workload")
	trace := flag.String("trace", "both", "0: end-to-end pass only (tracing off); 1: traced per-layer pass only; both")
	aa := flag.Bool("aa", false, "run the end-to-end pass twice, interleaved workload by workload, and fail when a bound is exceeded")
	jsonPath := flag.String("json", "", "also write every result to this file")
	outDir := flag.String("out", filepath.Join("benchmark", "out"), "directory for the span files")
	flag.Parse()
	if flag.NArg() > 0 {
		return 2, fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 {
		return 2, fmt.Errorf("-seconds must be positive")
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		return 2, fmt.Errorf("-trace must be 0, 1 or both")
	}
	if *aa && *trace == "1" {
		return 2, fmt.Errorf("-aa compares end-to-end passes; it cannot be combined with -trace 1")
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}

	file := resultsFile{Environment: currentEnvironment(), Seed: *seed, Seconds: *seconds, Workloads: map[string]*workloadResult{}}
	env := file.Environment
	fmt.Printf("dnnfusion benchmark: seed=%d seconds=%g nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		*seed, *seconds, env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit)

	line := resultLine{Metrics: map[string]lineMetric{}}
	exceeded := false
	for _, w := range selected {
		prefix := ""
		if len(selected) > 1 {
			prefix = w.name + "/"
		}
		fmt.Printf("== %s: %s (%d closed-loop client(s))\n", w.name, w.why, w.clients)
		wr := &workloadResult{}
		file.Workloads[w.name] = wr
		var err error
		if *trace != "1" {
			if wr.EndToEnd, err = endToEndPass(w, *seed, *seconds, e2eRounds); err != nil {
				return 1, err
			}
			printPass("end-to-end (tracing off)", endToEnd, wr.EndToEnd)
			line.add(prefix, wr.EndToEnd)
		}
		if *aa {
			if wr.Second, err = endToEndPass(w, *seed, *seconds, e2eRounds); err != nil {
				return 1, err
			}
			line.count(wr.Second)
			var over bool
			wr.NoiseFloor, over = compare(wr.EndToEnd, wr.Second)
			exceeded = exceeded || over
		}
		if *trace != "0" {
			if wr.PerLayer, err = tracedPass(w, *seed, *seconds, tracedRounds, *outDir); err != nil {
				return 1, err
			}
			printPass("per-layer (traced pass)", perLayer, wr.PerLayer)
			line.add(prefix, wr.PerLayer)
		}
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return 1, err
		}
	}
	line.Correct = line.Failed == 0
	out, err := json.Marshal(line)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(out))
	switch {
	case !line.Correct:
		return 1, fmt.Errorf("%d of %d operations failed", line.Failed, line.Attempted)
	case exceeded:
		return 1, fmt.Errorf("two passes of the same code differ by more than a bound")
	}
	return 0, nil
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	os.Exit(code)
}
