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
//	bench -csv                 # also emit tables as CSV
//	bench -json BENCH_E14.json # also record results as JSON
//
// The tables are paper-shape recordings (who wins, where crossovers
// fall), not a regression gate: timing on a shared host spreads too
// widely to bound. Regression gating is guardianbench's job (benchmark/).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/exp"
	"repro/internal/metrics"
)

// jsonTable and jsonResult are the recorded shape of one run — the
// BENCH_*.json files checked in next to EXPERIMENTS.md.
type jsonTable struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

type jsonResult struct {
	ID          string      `json:"id"`
	Paper       string      `json:"paper"`
	Description string      `json:"description"`
	Scale       float64     `json:"scale"`
	ElapsedMS   int64       `json:"elapsed_ms"`
	Tables      []jsonTable `json:"tables"`
	Notes       []string    `json:"notes"`
}

func toJSONTable(t *metrics.Table) jsonTable {
	out := jsonTable{Title: t.Title, Headers: t.Headers}
	for r := 0; r < t.Rows(); r++ {
		row := make([]string, len(t.Headers))
		for c := range row {
			row[c] = t.Cell(r, c)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

func main() {
	var (
		experiment = flag.String("experiment", "", "run only this experiment id (see -list)")
		scale      = flag.Float64("scale", 1.0, "workload scale factor")
		list       = flag.Bool("list", false, "list experiments and exit")
		csv        = flag.Bool("csv", false, "also print tables as CSV")
		jsonPath   = flag.String("json", "", "also record results as JSON to this file")
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

	var recorded []jsonResult
	for _, e := range run {
		fmt.Printf("\n### %s — %s\n### %s\n\n", e.ID, e.Paper, e.Description)
		start := time.Now()
		res, err := e.Run(exp.Scale(*scale))
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		for _, tab := range res.Tables {
			tab.Render(os.Stdout)
			fmt.Println()
			if *csv {
				tab.CSV(os.Stdout)
				fmt.Println()
			}
		}
		for _, note := range res.Notes {
			fmt.Printf("  %s\n", note)
		}
		fmt.Printf("  (ran in %v)\n", elapsed.Round(time.Millisecond))
		if *jsonPath != "" {
			jr := jsonResult{
				ID: e.ID, Paper: e.Paper, Description: e.Description,
				Scale: *scale, ElapsedMS: elapsed.Milliseconds(), Notes: res.Notes,
			}
			for _, tab := range res.Tables {
				jr.Tables = append(jr.Tables, toJSONTable(tab))
			}
			recorded = append(recorded, jr)
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(recorded, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "encoding results: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("\nrecorded %d result(s) to %s\n", len(recorded), *jsonPath)
	}
}
