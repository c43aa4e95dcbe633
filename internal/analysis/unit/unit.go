// Package unit runs the passes over one type-checked package and filters
// what they report through the package's //lint:allow directives. The
// driver (cmd/guardianlint) and the golden-test harness
// (analysistest) both go through it.
package unit

import (
	"fmt"
	"go/token"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// Finding is a diagnostic with its originating pass attached.
type Finding struct {
	analysis.Diagnostic
	// Pass names the analyzer that reported it.
	Pass string
}

// RunAnalyzers applies every pass to one unit and filters the results
// through the unit's //lint:allow directives. Directives with an empty
// reason are themselves reported (an exemption from a paper invariant must
// say why). prog is the run's whole-program accumulator.
func RunAnalyzers(u *load.Unit, analyzers []*analysis.Analyzer, prog *analysis.Program) []Finding {
	allows := analysis.CollectAllows(u.Fset, u.Files)
	out, _ := Analyze(u, analyzers, prog, allows)
	out = append(out, ReasonlessAllows(allows)...)
	return out
}

// Analyze applies every pass to one unit, suppressing findings through the
// given directives (marking the ones that fire as Used). Callers that need
// the allow inventory afterwards — the driver's whole-program
// filtering and staleness report — use this instead of RunAnalyzers. The
// suppressed findings come back separately so machine-readable output can
// show what the allow inventory is holding down.
func Analyze(u *load.Unit, analyzers []*analysis.Analyzer, prog *analysis.Program, allows []*analysis.Allow) (out, suppressed []Finding) {
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
			Program:   prog,
		}
		pass.Report = func(d analysis.Diagnostic) {
			for _, al := range allows {
				if al.Suppresses(u.Fset, a.Name, d.Pos) {
					al.Used = true
					suppressed = append(suppressed, Finding{Diagnostic: d, Pass: a.Name})
					return
				}
			}
			out = append(out, Finding{Diagnostic: d, Pass: a.Name})
		}
		if err := a.Run(pass); err != nil {
			out = append(out, Finding{
				Diagnostic: analysis.Diagnostic{Pos: token.NoPos, Message: fmt.Sprintf("internal error: %v", err)},
				Pass:       a.Name,
			})
		}
	}
	return out, suppressed
}

// ReasonlessAllows reports every used directive that carries no reason.
func ReasonlessAllows(allows []*analysis.Allow) []Finding {
	var out []Finding
	for _, al := range allows {
		if al.Used && al.Reason == "" {
			out = append(out, Finding{
				Diagnostic: analysis.Diagnostic{Pos: al.Pos, Message: fmt.Sprintf("//lint:allow %s needs a reason", al.Pass)},
				Pass:       "lint",
			})
		}
	}
	return out
}
