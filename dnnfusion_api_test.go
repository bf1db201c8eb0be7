// Public-API tests: the facade a downstream user sees, exercised the way
// the README documents it — Compile with functional options into a Model,
// serve through named-I/O Runners, simulate on the device model.
package dnnfusion_test

import (
	"context"
	"math"
	"testing"

	"dnnfusion"
	"dnnfusion/internal/ops"
)

func buildPublicMLP(t testing.TB) *dnnfusion.Graph {
	t.Helper()
	g := dnnfusion.NewGraph("api-mlp")
	x := g.AddInput("x", dnnfusion.ShapeOf(4, 16))
	w1 := g.AddWeight("w1", dnnfusion.Rand(16, 32))
	h := g.Apply1(dnnfusion.MatMul(), x, w1)
	h = g.Apply1(dnnfusion.Relu(), h)
	w2 := g.AddWeight("w2", dnnfusion.Rand(32, 8))
	out := g.Apply1(dnnfusion.MatMul(), h, w2)
	out = g.Apply1(dnnfusion.Softmax(-1), out)
	g.MarkOutput(out)
	return g
}

func TestPublicCompileRunSimulate(t *testing.T) {
	g := buildPublicMLP(t)
	model, err := dnnfusion.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if model.FusedLayerCount() >= len(g.Nodes) {
		t.Errorf("no fusion: %d kernels for %d ops", model.FusedLayerCount(), len(g.Nodes))
	}
	if got := model.InputNames(); len(got) != 1 || got[0] != "x" {
		t.Errorf("input names = %v, want [x]", got)
	}
	if got := model.OutputNames(); len(got) != 1 {
		t.Errorf("output names = %v, want one", got)
	}

	input := dnnfusion.Rand(4, 16)
	feeds := map[string]*dnnfusion.Tensor{"x": input}
	got, err := model.NewRunner().Run(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dnnfusion.InterpretNamed(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	outName := model.OutputNames()[0]
	for i := range want[outName].Data() {
		if math.Abs(float64(got[outName].Data()[i]-want[outName].Data()[i])) > 1e-4 {
			t.Fatalf("public API execution diverges at %d", i)
		}
	}

	for _, dev := range []*dnnfusion.Device{dnnfusion.SnapdragonCPU(), dnnfusion.SnapdragonGPU()} {
		rep, err := model.Simulate(dev)
		if err != nil {
			t.Fatal(err)
		}
		if rep.LatencyMs <= 0 || rep.Kernels != model.FusedLayerCount() {
			t.Errorf("%s: bad report %+v", dev, rep)
		}
	}
}

func TestPublicModelZoo(t *testing.T) {
	names := dnnfusion.ModelNames()
	if len(names) != 15 {
		t.Fatalf("model zoo has %d models, want 15", len(names))
	}
	g, err := dnnfusion.BuildModel("VGG-16")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := dnnfusion.BuildModel("not-a-model"); err == nil {
		t.Error("unknown model should fail")
	}
	if len(dnnfusion.Phones()) != 3 {
		t.Error("expected the paper's three phones")
	}
}

// TestPublicProfileDBShared: two compiles share one database; the second
// finds every latency the first stored and adds none.
func TestPublicProfileDBShared(t *testing.T) {
	db := dnnfusion.NewProfileDB()
	g, err := dnnfusion.BuildModel("TinyBERT") // has yellow decisions
	if err != nil {
		t.Fatal(err)
	}
	compile := func() {
		t.Helper()
		if _, err := dnnfusion.Compile(g,
			dnnfusion.WithDevice(dnnfusion.SnapdragonCPU()),
			dnnfusion.WithProfileDB(db)); err != nil {
			t.Fatal(err)
		}
	}
	compile()
	n := db.Len()
	if n == 0 {
		t.Fatal("first compile stored no latency")
	}
	compile()
	if db.Len() != n {
		t.Errorf("second compile grew the database: %d entries, want %d", db.Len(), n)
	}
}

func TestPublicOptionsAblation(t *testing.T) {
	g := buildPublicMLP(t)
	full, err := dnnfusion.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	none, err := dnnfusion.Compile(g,
		dnnfusion.WithoutRewrite(), dnnfusion.WithoutFusion(), dnnfusion.WithoutBlockOpt())
	if err != nil {
		t.Fatal(err)
	}
	if full.FusedLayerCount() >= none.FusedLayerCount() {
		t.Errorf("full pipeline (%d kernels) should fuse below no-pipeline (%d)",
			full.FusedLayerCount(), none.FusedLayerCount())
	}
	cpu := dnnfusion.SnapdragonCPU()
	rf, _ := full.Simulate(cpu)
	rn, _ := none.Simulate(cpu)
	if rf.LatencyMs >= rn.LatencyMs {
		t.Errorf("full pipeline not faster: %v >= %v", rf.LatencyMs, rn.LatencyMs)
	}
}

// TestRandShapeSeeding pins the Rand fix: same-rank tensors of different
// shapes must not share contents, and the values stay reproducible.
func TestRandShapeSeeding(t *testing.T) {
	a := dnnfusion.Rand(32, 64)
	b := dnnfusion.Rand(64, 32)
	same := true
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("Rand(32,64) and Rand(64,32) produced identical data")
	}
	again := dnnfusion.Rand(32, 64)
	for i := range a.Data() {
		if a.Data()[i] != again.Data()[i] {
			t.Fatal("Rand is not reproducible for a fixed shape")
		}
	}
}

// TestAbsClearsSignBit: Abs is IEEE |x| on the interpreter and the compiled
// path alike: −0 gives +0 and a negative NaN keeps its payload with the sign
// bit clear, in a whole 8-lane group and in the tail after it.
func TestAbsClearsSignBit(t *testing.T) {
	specials := []uint32{0x80000000, 0xffc00001, 0x7fc00002, 0xbf800000, 0xff800000, 0x80000001, 0, 0x3f800000}
	data := make([]float32, 19)
	for i := range data {
		data[i] = math.Float32frombits(specials[i%len(specials)])
	}
	g := dnnfusion.NewGraph("abs")
	x := g.AddInput("x", dnnfusion.ShapeOf(1, len(data)))
	g.MarkOutputAs("y", g.Apply1(ops.NewAbs(), x))
	feeds := map[string]*dnnfusion.Tensor{"x": dnnfusion.FromSlice(data, 1, len(data))}
	want, err := dnnfusion.InterpretNamed(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnnfusion.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.NewRunner().Run(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	for path, out := range map[string]*dnnfusion.Tensor{"interpreter": want["y"], "compiled": got["y"]} {
		for i, v := range out.Data() {
			if bits, in := math.Float32bits(v), math.Float32bits(data[i]); bits != in&^(1<<31) {
				t.Errorf("%s: Abs(%#08x) = %#08x, want %#08x", path, in, bits, in&^(1<<31))
			}
		}
	}
}
