package core

import (
	"context"
	"fmt"
	"testing"

	"dnnfusion/internal/device"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/models"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/profile"
	"dnnfusion/internal/tensor"
)

// buildAttentionish: a transformer-flavored micro-graph with rewritable
// redundancy (double transpose) and fusable chains.
func buildAttentionish(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("attn")
	x := g.AddInput("x", tensor.Of(8, 16))
	wq := g.AddWeight("wq", tensor.New(16, 16).Rand(1))
	q := g.Apply1(ops.NewMatMul(), x, wq)
	q = g.Apply1(ops.NewTranspose(1, 0), q)
	q = g.Apply1(ops.NewTranspose(1, 0), q) // export cruft: cancels
	q = g.Apply1(ops.NewMulConst(0.25), q)
	k := g.Apply1(ops.NewMatMul(), x, g.AddWeight("wk", tensor.New(16, 16).Rand(2)))
	scores := g.Apply1(ops.NewMatMul(), q, g.Apply1(ops.NewTranspose(1, 0), k))
	attn := g.Apply1(ops.NewSoftmax(-1), scores)
	g.MarkOutput(attn)
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	return g
}

func TestCompileFullPipeline(t *testing.T) {
	g := buildAttentionish(t)
	before := len(g.Nodes)
	c, err := Compile(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != before {
		t.Error("Compile mutated the input graph")
	}
	if c.Stats.RewriteApplied == 0 {
		t.Error("rewriting found nothing on a graph with a transpose pair")
	}
	if c.FusedLayerCount() >= len(c.G.Nodes) {
		t.Errorf("fusion produced %d kernels for %d nodes", c.FusedLayerCount(), len(c.G.Nodes))
	}
	if len(c.Kernels) != c.FusedLayerCount() {
		t.Errorf("kernels %d != blocks %d", len(c.Kernels), c.FusedLayerCount())
	}
}

func TestCompiledRunMatchesInterpreter(t *testing.T) {
	g := buildAttentionish(t)
	x := tensor.NewOf(g.Inputs[0].Shape).Rand(9)
	want, err := graph.InterpretOutputs(g, map[*graph.Value]*tensor.Tensor{g.Inputs[0]: x})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		Defaults(),
		{Fusion: true},       // no rewriting
		{GraphRewrite: true}, // no fusion
		{},                   // neither
	} {
		c, err := Compile(g, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		got, err := c.NewSession().Run(context.Background(),
			map[*graph.Value]*tensor.Tensor{c.G.Inputs[0]: x})
		if err != nil {
			t.Fatalf("%+v run: %v", opts, err)
		}
		if !tensor.AllClose(got[0], want[0], 1e-4) {
			t.Errorf("opts %+v changed semantics (max diff %g)",
				opts, tensor.MaxAbsDiff(got[0], want[0]))
		}
	}
}

func TestSessionMissingInputCheck(t *testing.T) {
	g := buildAttentionish(t)
	c, err := Compile(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewSession().Run(context.Background(), nil); err == nil {
		t.Error("Run with missing inputs should fail")
	}
}

// kernelPlan lists each kernel's structural key with its schedule pair:
// everything a profile database could change about a compile.
func kernelPlan(c *Compiled) []string {
	out := make([]string, len(c.Kernels))
	for i, k := range c.Kernels {
		out[i] = fmt.Sprintf("%s|%+v|%+v", k.Key, k.Schedule, k.ProducerSchedule)
	}
	return out
}

func buildTinyBERT(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := models.Build("TinyBERT")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestProfileDBReducesMeasurements: a warm database answers every yellow
// decision of a repeat compile on the same device, and changes nothing
// about the compile: kernels and their schedules equal a compile without
// a database.
func TestProfileDBReducesMeasurements(t *testing.T) {
	g := buildTinyBERT(t)
	opts := Defaults()
	opts.Device = device.Snapdragon865CPU()
	bare, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.ProfileDB = profile.New()
	cold, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.ProfileLookups == 0 || cold.Stats.ProfileMisses == 0 {
		t.Fatalf("cold compile: %d lookups, %d misses; TinyBERT has yellow decisions",
			cold.Stats.ProfileLookups, cold.Stats.ProfileMisses)
	}
	warm, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.ProfileMisses != 0 || warm.Stats.ProfileLookups != cold.Stats.ProfileLookups {
		t.Errorf("warm compile: %d misses of %d lookups, want 0 of %d",
			warm.Stats.ProfileMisses, warm.Stats.ProfileLookups, cold.Stats.ProfileLookups)
	}
	want := kernelPlan(bare)
	for name, c := range map[string]*Compiled{"cold": cold, "warm": warm} {
		if got := kernelPlan(c); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s database changed the compile:\n%v\nwant\n%v", name, got, want)
		}
	}
}

// TestProfileDBKeysDevice: a latency is a property of the device it was
// measured on, so a database warmed on the CPU answers none of the GPU's
// yellow decisions: the GPU compile misses exactly as often as on an empty
// database (its own repeated combinations hit), and compiles to the same
// kernels.
func TestProfileDBKeysDevice(t *testing.T) {
	g := buildTinyBERT(t)
	db := profile.New()
	opts := Defaults()
	opts.ProfileDB = db
	opts.Device = device.Snapdragon865CPU()
	if _, err := Compile(g, opts); err != nil {
		t.Fatal(err)
	}
	if db.Len() == 0 {
		t.Fatal("CPU compile stored no latency")
	}
	opts.Device = device.Adreno650()
	shared, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.ProfileDB = profile.New()
	fresh, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Stats.ProfileMisses != fresh.Stats.ProfileMisses || fresh.Stats.ProfileMisses == 0 {
		t.Errorf("GPU compile on a CPU-warmed database: %d misses of %d lookups, want the %d of an empty database",
			shared.Stats.ProfileMisses, shared.Stats.ProfileLookups, fresh.Stats.ProfileMisses)
	}
	if got, want := kernelPlan(shared), kernelPlan(fresh); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("GPU compile on a CPU-warmed database: %d kernels, want the %d of one on an empty database",
			len(got), len(want))
	}
}

// TestScheduleIgnoresDevice: a kernel's tile schedule is a function of its
// shape alone. The device profile may change the fusion plan, but a kernel
// compiled with no device, for the phone CPU or for the phone GPU gets one
// schedule pair.
func TestScheduleIgnoresDevice(t *testing.T) {
	g := buildTinyBERT(t)
	devs := []*device.Device{nil, device.Snapdragon865CPU(), device.Adreno650()}
	plans := make([]map[string]string, len(devs))
	for i, dev := range devs {
		opts := Defaults()
		opts.Device = dev
		c, err := Compile(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = map[string]string{}
		for _, k := range c.Kernels {
			plans[i][k.Key] = fmt.Sprintf("%v/%v", k.Schedule, k.ProducerSchedule)
		}
	}
	for i := range plans {
		for j := i + 1; j < len(plans); j++ {
			shared := 0
			for key, a := range plans[i] {
				b, ok := plans[j][key]
				if !ok {
					continue
				}
				shared++
				if a != b {
					t.Errorf("kernel %.60s…: %s on %v, %s on %v", key, a, devs[i], b, devs[j])
				}
			}
			if shared == 0 {
				t.Errorf("compiles on %v and %v share no kernel; the comparison is vacuous", devs[i], devs[j])
			}
		}
	}
}

func TestSimulatePipelineOrdering(t *testing.T) {
	g := buildAttentionish(t)
	dev := device.Snapdragon865CPU()
	latency := func(opts Options) float64 {
		c, err := Compile(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Simulate(dev)
		if err != nil {
			t.Fatal(err)
		}
		return r.LatencyMs
	}
	ourB := latency(Options{})
	gr := latency(Options{GraphRewrite: true})
	grFuse := latency(Options{GraphRewrite: true, Fusion: true})
	full := latency(Defaults())
	if gr > ourB {
		t.Errorf("rewriting slowed things down: %v > %v", gr, ourB)
	}
	if grFuse > gr {
		t.Errorf("fusion slowed things down: %v > %v", grFuse, gr)
	}
	if full > grFuse {
		t.Errorf("other optimizations slowed things down: %v > %v", full, grFuse)
	}
	if full >= ourB {
		t.Errorf("full pipeline not faster than baseline: %v >= %v", full, ourB)
	}
}

func TestEstimateBlockLatencyBoundaries(t *testing.T) {
	g := buildAttentionish(t)
	dev := device.Snapdragon865CPU()
	single := EstimateBlockLatency(dev, g.Nodes[:1])
	pair := EstimateBlockLatency(dev, g.Nodes[:2])
	if single <= 0 || pair <= 0 {
		t.Fatal("non-positive block latency")
	}
	// Fusing two ops into one kernel saves a launch: the fused estimate
	// must undercut the sum of separate estimates.
	sum := single + EstimateBlockLatency(dev, g.Nodes[1:2])
	if pair >= sum {
		t.Errorf("fused estimate %v >= split %v", pair, sum)
	}
}

// TestScheduleSelectionDeterministic pins the compile-artifact contract:
// compiling the same model twice yields identical tile schedules, since
// selection is a pure function of shape and device.
func TestScheduleSelectionDeterministic(t *testing.T) {
	schedulesOf := func(c *Compiled) []string {
		var out []string
		for _, k := range c.Kernels {
			if k.Schedule.Zero() {
				continue
			}
			out = append(out, fmt.Sprintf("%dx%dx%d:%+v", k.TaskM, k.TaskN, k.TaskK, k.Schedule))
		}
		return out
	}
	g := buildAttentionish(t)
	c1, err := Compile(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Compile(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := schedulesOf(c1), schedulesOf(c2)
	if len(s1) == 0 {
		t.Fatal("no kernel got a schedule; the attention graph has heavy kernels")
	}
	if fmt.Sprint(s1) != fmt.Sprint(s2) {
		t.Fatalf("same model compiled to different schedules:\n%v\n%v", s1, s2)
	}
}
