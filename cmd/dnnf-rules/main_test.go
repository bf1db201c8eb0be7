package main

import (
	"bytes"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dnnfusion"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

func runCmd(args ...string) (status int, stdout, stderr string) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

// ruleCounts parses -model output into rule → (matched, applied).
func ruleCounts(t *testing.T, out string) map[string][2]int {
	t.Helper()
	counts := map[string][2]int{}
	for _, line := range strings.Split(out, "\n")[2:] {
		f := strings.Fields(line)
		if len(f) != 4 {
			continue
		}
		matched, err1 := strconv.Atoi(f[2])
		applied, err2 := strconv.Atoi(f[3])
		if err1 != nil || err2 != nil {
			t.Fatalf("bad rule line %q", line)
		}
		counts[f[1]] = [2]int{matched, applied}
	}
	return counts
}

// TestModelCountsImportedBatchNorm: a Conv + data-carrying
// BatchNormalization written to ONNX imports as Conv, Mul, Add, and the
// per-rule report shows the affine fold matched and applied there.
func TestModelCountsImportedBatchNorm(t *testing.T) {
	g := graph.New("conv-bn")
	x := g.AddInput("x", tensor.Of(1, 4, 8, 8))
	conv := g.Apply1(ops.NewConv(ops.ConvAttrs{Pads: []int{1}}), x, g.AddWeight("w", tensor.New(4, 4, 3, 3).Rand(1)))
	p := func(name string, vals ...float32) *graph.Value {
		return g.AddWeight(name, tensor.FromSlice(vals, 4))
	}
	bn := g.Apply1(ops.NewBatchNormalization(1e-5), conv,
		p("gamma", 1, 2, 0.5, 1.5), p("beta", 0.1, -0.2, 0.3, 0), p("mean", 0.05, -0.1, 0.2, 0), p("var", 1, 0.5, 2, 0.25))
	g.MarkOutputAs("y", g.Apply1(ops.NewRelu(), bn))
	path := filepath.Join(t.TempDir(), "conv-bn.onnx")
	if err := dnnfusion.ExportFile(g, path); err != nil {
		t.Fatal(err)
	}

	status, out, errOut := runCmd("-model", path)
	if status != 0 {
		t.Fatalf("exit %d: %s", status, errOut)
	}
	if !strings.HasPrefix(out, path+": 4 -> 2 ops, 1 applications\n") {
		t.Errorf("summary line: %q", strings.SplitN(out, "\n", 2)[0])
	}
	counts := ruleCounts(t, out)
	if len(counts) != 19 {
		t.Errorf("%d rule lines, want one per default rule (19)", len(counts))
	}
	if c := counts["fold-conv-affine"]; c[1] < 1 || c[0] < c[1] {
		t.Errorf("fold-conv-affine matched %d, applied %d; want applied > 0", c[0], c[1])
	}
}

func TestModelUnknownExits2(t *testing.T) {
	status, out, errOut := runCmd("-model", "NoSuchNet")
	if status != 2 || out != "" || strings.Count(errOut, "\n") != 1 || !strings.Contains(errOut, "NoSuchNet") {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 2 and one stderr line", status, out, errOut)
	}
}
