// Command dnnf-compile compiles one of the evaluation models with the
// DNNFusion pipeline and reports what the compiler did: rewriting
// statistics, the fusion plan, generated kernels (optionally their source),
// and simulated latency on the selected phone.
//
// Usage:
//
//	dnnf-compile -model GPT-2
//	dnnf-compile -model YOLO-V4 -source -top 3
//	dnnf-compile -model BERT-base -phone "Honor Magic 2"
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"sort"
	"strings"

	"dnnfusion"
	"dnnfusion/internal/device"
)

// shapeRE matches the shape a scalar path prints after each source kind.
var shapeRE = regexp.MustCompile(`\[[^\]]*\]`)

// scalarPathKind reduces one ops.ScalarPaths entry ("conv[1 32 56 56] pulls
// pointwise[1 32 58 58] element by element") to its `consumer <- operand`
// kind, the unit the report groups by.
func scalarPathKind(path string) string {
	f := strings.Fields(shapeRE.ReplaceAllString(path, ""))
	if len(f) >= 3 && f[1] == "pulls" {
		return f[0] + " <- " + f[2]
	}
	return strings.Join(f, " ")
}

func main() {
	model := flag.String("model", "GPT-2", "model name (see dnnfusion.ModelNames)")
	phone := flag.String("phone", "Samsung Galaxy S20", "phone profile for simulation")
	source := flag.Bool("source", false, "print generated kernel source for the largest blocks")
	top := flag.Int("top", 5, "how many of the largest kernels to describe")
	noRewrite := flag.Bool("no-rewrite", false, "disable graph rewriting")
	noFusion := flag.Bool("no-fusion", false, "disable fusion (OurB)")
	flag.Parse()

	g, err := dnnfusion.BuildModel(*model)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	var dev *dnnfusion.Device
	var gpuDev *dnnfusion.Device
	for _, p := range device.Phones() {
		if p.Name == *phone {
			dev, gpuDev = p.CPU, p.GPU
		}
	}
	if dev == nil {
		fmt.Fprintf(os.Stderr, "unknown phone %q\n", *phone)
		os.Exit(2)
	}

	opts := []dnnfusion.Option{dnnfusion.WithDevice(dev)}
	if *noRewrite {
		opts = append(opts, dnnfusion.WithoutRewrite())
	}
	if *noFusion {
		opts = append(opts, dnnfusion.WithoutFusion())
	}
	m, err := dnnfusion.Compile(g, opts...)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s: %d operators, %.1f GFLOPs, %.0f MB intermediates\n",
		*model, len(g.Nodes), float64(g.FLOPs())/1e9, float64(g.IntermediateBytes())/1e6)
	st := m.Stats
	if !*noRewrite {
		fmt.Printf("rewriting: %d applications in %.1f ms (%d -> %d ops, %d -> %d FLOPs)\n",
			st.RewriteApplied, st.RewriteMs,
			st.RewriteStats.NodesBefore, st.RewriteStats.NodesAfter,
			st.RewriteStats.FLOPsBefore, st.RewriteStats.FLOPsAfter)
		for cat, n := range st.RewriteStats.ByCategory {
			fmt.Printf("  %-16s %d\n", cat, n)
		}
	}
	fmt.Printf("fusion: %d kernels in %.1f ms; %d green, %d yellow, %d broken (table %d / constraint %d / cycle %d / profile %d)\n",
		m.FusedLayerCount(), st.FusionMs,
		m.Plan.GreenFusions, m.Plan.YellowFusions,
		m.Plan.BrokenByTable+m.Plan.BrokenByConstraint+m.Plan.BrokenByCycle+m.Plan.BrokenByProfile,
		m.Plan.BrokenByTable, m.Plan.BrokenByConstraint,
		m.Plan.BrokenByCycle, m.Plan.BrokenByProfile)

	scalar := 0
	byKind := map[string]int{}
	for _, k := range m.Kernels {
		paths, err := k.ScalarPaths()
		if err != nil {
			log.Fatal(err)
		}
		if len(paths) > 0 {
			scalar++
		}
		for _, p := range paths {
			byKind[scalarPathKind(p)]++
		}
	}
	fmt.Printf("scalar-fallback kernels: %d\n", scalar)
	kinds := make([]string, 0, len(byKind))
	for kind := range byKind {
		kinds = append(kinds, kind)
	}
	sort.Slice(kinds, func(i, j int) bool {
		if byKind[kinds[i]] != byKind[kinds[j]] {
			return byKind[kinds[i]] > byKind[kinds[j]]
		}
		return kinds[i] < kinds[j]
	})
	for _, kind := range kinds {
		fmt.Printf("  %s ×%d\n", kind, byKind[kind])
	}

	ks := m.Kernels
	sort.Slice(ks, func(i, j int) bool { return ks[i].OpCount > ks[j].OpCount })
	fmt.Printf("\nlargest %d kernels:\n", *top)
	for i := 0; i < *top && i < len(ks); i++ {
		k := ks[i]
		fmt.Printf("  %s: %s (%d ops, %d FLOPs, layout %s, schedule %s)\n",
			k.Name, k.Block, k.OpCount, k.FLOPs, k.Layout, k.Schedule)
		scratch, programs, err := k.Scratch()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("    scratch %.1f KiB", float64(scratch)/1024)
		for _, p := range programs {
			fmt.Printf("; %s", p)
		}
		fmt.Println()
		if *source {
			fmt.Println(k.Source(dnnfusion.BackendCPU))
		}
	}
	fmt.Printf("session scratch: %.1f KiB per lane, outside the planned arena\n", float64(m.ScratchBytes())/1024)

	cpuRep, err := m.Simulate(dev)
	if err != nil {
		log.Fatal(err)
	}
	gpuRep, err := m.Simulate(gpuDev)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated latency on %s: CPU %.0f ms, GPU %.0f ms\n", *phone, cpuRep.LatencyMs, gpuRep.LatencyMs)
	fmt.Printf("memory: %.0f MB accessed, %.0f MB peak\n",
		float64(cpuRep.MemAccessBytes)/1e6, float64(cpuRep.PeakMemBytes)/1e6)
}
