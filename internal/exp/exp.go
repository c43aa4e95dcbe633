// Package exp implements the repository's experiment harness: one
// function per experiment in DESIGN.md's index (E1–E17), each regenerating
// the table for one figure or design claim of the paper. cmd/bench and the
// root benchmarks drive the same code at different scales.
//
// Every experiment is a client of the same three pieces: per-file
// constants sized by a Scale (the only size control), runFleet for
// anything that times operations, and a Result whose Claims carry their
// verdict as a bool.
package exp

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/guardian"
	"repro/internal/metrics"
)

// Scale shrinks or grows an experiment's workload. 1.0 is the full size
// used by cmd/bench; benchmarks use smaller values for quick iterations.
type Scale float64

// N scales a count, with a floor of min.
func (s Scale) N(full, min int) int {
	n := int(float64(full) * float64(s))
	if n < min {
		return min
	}
	return n
}

// Claim is one of the paper's qualitative claims, checked against a run.
type Claim struct {
	// Holds is the verdict; cmd/bench prints it as HOLDS or DEVIATES.
	Holds bool
	// Text says what was checked and what was measured.
	Text string
}

// Result is one experiment's output: a set of tables, the checked claims,
// and free-form notes on the shape of the numbers.
type Result struct {
	ID     string
	Tables []*metrics.Table
	Claims []Claim
	Notes  []string
}

// Holdsf records a claim the run confirmed.
func (r *Result) Holdsf(format string, args ...any) {
	r.Claims = append(r.Claims, Claim{Holds: true, Text: fmt.Sprintf(format, args...)})
}

// Deviatesf records a claim the run contradicted.
func (r *Result) Deviatesf(format string, args ...any) {
	r.Claims = append(r.Claims, Claim{Text: fmt.Sprintf(format, args...)})
}

// HoldsUnless records one claim over many cells: it holds only when no
// cell deviated, and otherwise carries every deviation in its text.
func (r *Result) HoldsUnless(deviations []string, format string, args ...any) {
	if len(deviations) == 0 {
		r.Holdsf(format, args...)
		return
	}
	r.Deviatesf("not earned — %s: %s", fmt.Sprintf(format, args...), strings.Join(deviations, "; "))
}

// Notef appends a formatted shape note.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// waitQuiesce drains the network and gives the processes its deliveries
// woke a moment.
func waitQuiesce(w *guardian.World) {
	w.Quiesce()
	time.Sleep(5 * time.Millisecond)
}
