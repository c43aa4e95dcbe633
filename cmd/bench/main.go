// Command bench regenerates the repository's experiment tables — one per
// figure-level claim of "Primitives for Distributed Computing" (see
// DESIGN.md §3 for the index and EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	bench                      # run every experiment at full scale
//	bench -experiment fig1     # run one experiment
//	bench -scale 0.25          # shrink the workloads
//	bench -list                # list experiments
//	bench -csv                 # also emit tables as CSV, the machine-readable form
//
// The tables are paper-shape recordings (who wins, where crossovers
// fall), not a regression gate: timing on a shared host spreads too
// widely to bound. Regression gating is guardianbench's job (benchmark/).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/exp"
)

// printResult writes one experiment's tables, then each claim on a line of
// its own with its verdict first — HOLDS: or DEVIATES:, the two prefixes
// EXPERIMENTS.md refers to — then the shape notes.
func printResult(w io.Writer, res *exp.Result, csv bool) {
	for _, tab := range res.Tables {
		tab.Render(w)
		fmt.Fprintln(w)
		if csv {
			tab.CSV(w)
			fmt.Fprintln(w)
		}
	}
	for _, c := range res.Claims {
		verdict := "DEVIATES"
		if c.Holds {
			verdict = "HOLDS"
		}
		fmt.Fprintf(w, "  %s: %s\n", verdict, c.Text)
	}
	for _, note := range res.Notes {
		fmt.Fprintf(w, "  %s\n", note)
	}
}

func main() {
	var (
		experiment = flag.String("experiment", "", "run only this experiment id (see -list)")
		scale      = flag.Float64("scale", 1.0, "workload scale factor")
		list       = flag.Bool("list", false, "list experiments and exit")
		csv        = flag.Bool("csv", false, "also print tables as CSV")
	)
	flag.Parse()

	if *list {
		fmt.Println("Experiments (DESIGN.md §3):")
		for _, e := range exp.All() {
			fmt.Printf("  %-14s %-22s %s\n", e.ID, e.Paper, e.Description)
		}
		return
	}

	run := exp.All()
	if *experiment != "" {
		e, err := exp.ByID(*experiment)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		run = []exp.Experiment{e}
	}

	for _, e := range run {
		fmt.Printf("\n### %s — %s\n### %s\n\n", e.ID, e.Paper, e.Description)
		start := time.Now()
		res, err := e.Run(exp.Scale(*scale))
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		printResult(os.Stdout, res, *csv)
		fmt.Printf("  (ran in %v)\n", time.Since(start).Round(time.Millisecond))
	}
}
