// Command dnnf-bench regenerates the paper's tables and figures on the
// simulated mobile devices.
//
// Usage:
//
//	dnnf-bench -e all
//	dnnf-bench -e table5
//	dnnf-bench -e fig7 -e fig9b
//
// Measured performance lives in benchmark/ (bash benchmark/run.sh).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dnnfusion/internal/bench"
)

type list []string

func (l *list) String() string     { return strings.Join(*l, ",") }
func (l *list) Set(v string) error { *l = append(*l, v); return nil }

// experiments maps each -e id to its printer.
var experiments = map[string]func(*bench.Context, io.Writer){
	"all":       (*bench.Context).PrintAll,
	"table1":    (*bench.Context).PrintTable1,
	"table2":    func(_ *bench.Context, w io.Writer) { bench.PrintTable2(w) },
	"table3":    func(_ *bench.Context, w io.Writer) { bench.PrintTable3(w) },
	"table4":    func(_ *bench.Context, w io.Writer) { bench.PrintTable4(w) },
	"table5":    (*bench.Context).PrintTable5,
	"table6":    (*bench.Context).PrintTable6,
	"fig6":      (*bench.Context).PrintFigure6,
	"fig7":      (*bench.Context).PrintFigure7,
	"fig8":      (*bench.Context).PrintFigure8,
	"fig9a":     (*bench.Context).PrintFigure9a,
	"fig9b":     (*bench.Context).PrintFigure9b,
	"fig10":     (*bench.Context).PrintFigure10,
	"ablations": (*bench.Context).PrintAblations,
}

// run is main without the process: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("dnnf-bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var ids list
	fl.Var(&ids, "e", "experiment id (table1..table6, fig6..fig10, ablations, all); repeatable")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if len(ids) == 0 {
		ids = list{"all"}
	}
	for i, e := range ids {
		ids[i] = strings.ToLower(e)
		if experiments[ids[i]] == nil {
			fmt.Fprintf(stderr, "unknown experiment %q\n", e)
			return 2
		}
	}

	c := bench.NewContext()
	for _, e := range ids {
		experiments[e](c, stdout)
		fmt.Fprintln(stdout)
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
