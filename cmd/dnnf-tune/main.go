// Command dnnf-tune pre-tunes models offline: it runs the measured
// fusion-plan × schedule search (WithMeasuredTuning) for each requested
// model and batch size and persists the winning plans in a profile
// database, so later compilations — dnnf-serve -profile, or any embedder
// passing WithProfileDB — warm-start with zero measurement.
//
// Usage:
//
//	dnnf-tune -db tuned.json                         # tune every micro model
//	dnnf-tune -db tuned.json micro-mlp micro-attention
//	dnnf-tune -db tuned.json -batch 1,8,32 micro-mlp # batcher-formed sizes too
//	dnnf-tune -db tuned.json -budget 32 model.onnx   # imported ONNX models
//	dnnf-tune -db tuned.json -fake-clock 1000        # deterministic (CI)
//
// The database is written atomically (temp file + rename), so a serving
// process re-reading it mid-tune sees the old or the new complete file,
// never a torn one. Re-running against an existing database is
// incremental: models whose plans are already stored report plan_hits=1
// measured_runs=0 and cost nothing.
//
// -fake-clock N replaces the measurement clock with a deterministic
// virtual clock advancing N nanoseconds per reading. Every candidate then
// measures identically, ties keep the analytical choice, and the written
// database is reproducible — the CI autotune gate's mode. Tuning quality
// comes from the real clock; the fake one is for determinism only.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dnnfusion"

	"dnnfusion/internal/models"
	"dnnfusion/internal/profile"
	"dnnfusion/internal/tuner"
)

func main() {
	dbPath := flag.String("db", "tuned.json", "profile database to load (if present) and atomically write back")
	budget := flag.Int("budget", 16, "measured runs allowed per (model, batch size) search")
	batches := flag.String("batch", "1", "comma-separated batch sizes to tune (sizes > 1 tune the batch-capacity variant the serving batcher executes)")
	threads := flag.Int("threads", 1, "worker lanes candidates are measured with (match the deployment)")
	gpu := flag.Bool("gpu", false, "tune for the Adreno 650 GPU profile instead of the Snapdragon 865 CPU")
	fakeClock := flag.Int64("fake-clock", 0, "if > 0, replace the measurement clock with a deterministic virtual clock advancing this many ns per reading")
	flag.Parse()

	if *budget < 1 {
		fmt.Fprintln(os.Stderr, "dnnf-tune: -budget must be at least 1")
		os.Exit(2)
	}
	var sizes []int
	for _, f := range strings.Split(*batches, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		b, err := strconv.Atoi(f)
		if err != nil || b < 1 {
			fmt.Fprintf(os.Stderr, "dnnf-tune: bad batch size %q\n", f)
			os.Exit(2)
		}
		sizes = append(sizes, b)
	}
	if len(sizes) == 0 {
		sizes = []int{1}
	}

	if *fakeClock > 0 {
		tuner.SetClock(tuner.StepClock(*fakeClock))
		defer tuner.ResetClock()
	}

	db, err := openDB(*dbPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dnnf-tune: loading %s: %v\n", *dbPath, err)
		os.Exit(1)
	}

	targets := flag.Args()
	if len(targets) == 0 {
		for _, spec := range models.MicroModels() {
			targets = append(targets, spec.Name)
		}
	}

	opts := []dnnfusion.Option{
		dnnfusion.WithMeasuredTuning(*budget),
		dnnfusion.WithProfileDB(db),
		dnnfusion.WithThreads(*threads),
	}
	if *gpu {
		opts = append(opts, dnnfusion.WithDevice(dnnfusion.SnapdragonGPU()))
	}

	failed := false
	for _, target := range targets {
		g, err := buildTarget(target)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dnnf-tune: %s: %v\n", target, err)
			failed = true
			continue
		}
		m, err := dnnfusion.Compile(g, opts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dnnf-tune: compiling %s: %v\n", target, err)
			failed = true
			continue
		}
		report(g.Name, 1, m)
		for _, b := range sizes {
			if b == 1 {
				continue
			}
			bm, err := m.CompileBatch(b)
			if errors.Is(err, dnnfusion.ErrNotBatchable) {
				// Not a failure: the model serves through the per-request
				// fallback, which executes the batch-1 plan tuned above.
				fmt.Fprintf(os.Stderr, "dnnf-tune: %s batch %d: not batchable, skipped\n", target, b)
				continue
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "dnnf-tune: %s batch %d: %v\n", target, b, err)
				failed = true
				continue
			}
			report(g.Name, b, bm.Model())
		}
	}

	if err := db.Save(*dbPath); err != nil {
		fmt.Fprintf(os.Stderr, "dnnf-tune: saving %s: %v\n", *dbPath, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "saved %s: %d tuned plans\n", *dbPath, db.PlanLen())
	if failed {
		os.Exit(1)
	}
}

// openDB loads the -db database to extend. A file that does not exist yet,
// or one of another format version (a stale cache), starts a fresh
// database that the final save writes over it; an unreadable or corrupt
// file is an error.
func openDB(path string) (*dnnfusion.ProfileDB, error) {
	db, err := dnnfusion.LoadProfileDB(path)
	switch {
	case err == nil:
		fmt.Fprintf(os.Stderr, "loaded %s: %d tuned plans\n", path, db.PlanLen())
		return db, nil
	case errors.Is(err, profile.ErrVersion):
		fmt.Fprintf(os.Stderr, "dnnf-tune: %v: starting fresh\n", err)
	case !errors.Is(err, fs.ErrNotExist):
		return nil, err
	}
	return dnnfusion.NewProfileDB(), nil
}

// report prints one greppable line per tuned (model, batch) pair.
func report(name string, batch int, m *dnnfusion.Model) {
	fmt.Printf("tuned model=%s batch=%d fingerprint=%s plan_hits=%d plan_misses=%d measured_runs=%d schedule_misses=%d tuned_differs=%v\n",
		name, batch, m.Fingerprint,
		m.Stats.TunedPlanHits, m.Stats.TunedPlanMisses,
		m.Stats.MeasuredRuns, m.Stats.ScheduleMisses, m.Stats.TunedDiffers)
}

// buildTarget resolves a model argument: a micro-model name, or a path to
// an ONNX file (the Table 5 zoo is shape-only — its weights carry no data
// — so it cannot be measured and is not accepted here).
func buildTarget(target string) (*dnnfusion.Graph, error) {
	for _, spec := range models.MicroModels() {
		if spec.Name == target {
			return spec.Build(), nil
		}
	}
	if ext := strings.ToLower(filepath.Ext(target)); ext == ".onnx" {
		data, err := os.ReadFile(target)
		if err != nil {
			return nil, err
		}
		return dnnfusion.Import(data)
	}
	var known []string
	for _, spec := range models.MicroModels() {
		known = append(known, spec.Name)
	}
	return nil, fmt.Errorf("unknown model (micro models: %s; or pass a .onnx path)", strings.Join(known, ", "))
}
