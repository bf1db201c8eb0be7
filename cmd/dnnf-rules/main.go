// Command dnnf-rules prints the compiler's static rule tables: the operator
// classification (Table 2), the mapping-type combination matrix (Table 3),
// the graph-rewriting rule catalogue (Table 4), and the 23 code-generation
// rules per backend. With -model it rewrites one model and prints, per
// rewriting rule, the sites it matched against the applications applied.
//
// Usage:
//
//	dnnf-rules -table 2
//	dnnf-rules -table 3
//	dnnf-rules -table 4
//	dnnf-rules -codegen
//	dnnf-rules -model MobileNetV1-SSD
//	dnnf-rules -model model.onnx
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dnnfusion"
	"dnnfusion/internal/bench"
	"dnnfusion/internal/codegen"
	"dnnfusion/internal/ecg"
	"dnnfusion/internal/rewrite"
)

// run is main without the process: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("dnnf-rules", flag.ContinueOnError)
	fl.SetOutput(stderr)
	table := fl.Int("table", 0, "paper table to print (2, 3, or 4); 0 prints all")
	cg := fl.Bool("codegen", false, "print the 23 code-generation rules per backend")
	model := fl.String("model", "", "zoo model name or .onnx file: print rewriting rules matched vs applied")
	if err := fl.Parse(args); err != nil {
		return 2
	}

	w := stdout
	switch {
	case *model != "":
		if err := printRuleCounts(w, *model); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	case *cg:
		for _, b := range []codegen.Backend{codegen.CPU, codegen.GPU} {
			rules := codegen.RulesFor(b)
			fmt.Fprintf(w, "%v backend: %d code-generation rules (one per non-red Table 3 cell)\n", b, len(rules))
			for _, r := range rules {
				fmt.Fprintf(w, "  %-14s + %-14s -> %-16s [%s]\n", r.First, r.Second, r.Strategy, r.Decision)
			}
			fmt.Fprintln(w)
		}
	case *table == 2:
		bench.PrintTable2(w)
	case *table == 3:
		bench.PrintTable3(w)
	case *table == 4:
		bench.PrintTable4(w)
		fmt.Fprintln(w, "\nfull rule catalogue (matchers and the equation forms they derive):")
		for _, r := range rewrite.DefaultRules() {
			fmt.Fprintf(w, "%-14s %s\n", r.Cat, r.Name)
			for _, f := range r.Forms {
				fmt.Fprintf(w, "    %s\n", f)
			}
		}
	default:
		bench.PrintTable2(w)
		fmt.Fprintln(w)
		bench.PrintTable3(w)
		fmt.Fprintln(w)
		bench.PrintTable4(w)
	}
	return 0
}

// printRuleCounts rewrites the named zoo model or ONNX file with the
// default rules and prints one line per rule: the distinct sites it
// matched and how many rewrites it applied.
func printRuleCounts(w io.Writer, model string) error {
	var g *dnnfusion.Graph
	var err error
	if strings.HasSuffix(model, ".onnx") {
		g, err = dnnfusion.ImportFile(model)
	} else {
		g, err = dnnfusion.BuildModel(model)
	}
	if err != nil {
		return err
	}
	eng := rewrite.NewDefaultEngine()
	st, err := eng.Run(ecg.Build(g))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d -> %d ops, %d applications\n", model, st.NodesBefore, st.NodesAfter, st.Applied)
	fmt.Fprintf(w, "%-14s %-34s %8s %8s\n", "category", "rule", "matched", "applied")
	for _, r := range eng.Rules() {
		fmt.Fprintf(w, "%-14s %-34s %8d %8d\n", r.Cat, r.Name, st.Matched[r.Name], st.ByRule[r.Name])
	}
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
