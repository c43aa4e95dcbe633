// Package analysis is a small static-analysis framework in the spirit of
// golang.org/x/tools/go/analysis, built on the standard library only (the
// toolchain in this environment has no module network access, so the
// x/tools dependency is reimplemented to the extent the guardian passes
// need it: analyzers, passes, diagnostics, and line-comment suppression).
//
// The framework exists to make the paper's *linguistic* guarantees
// mechanical again where the runtime and the test suite do not. Liskov's
// CLU-based design gets its safety from the compiler: object addresses can
// never appear in messages, guardians share no storage, and every abstract
// value crossing the wire has an external rep with both halves of the
// encode/decode pair. In Go the first and last are checked at run time
// (xrep.Encode, the decode registry) on every send the tests exercise;
// the passes under passes/ keep the rules DESIGN §10's catch table shows
// nothing else enforcing.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/load"
)

// Analyzer describes one static-analysis pass: a name (used in diagnostic
// trailers and //lint:allow directives), documentation, and the Run
// function applied to each package.
type Analyzer struct {
	// Name identifies the pass; it must be a valid identifier.
	Name string
	// Doc is the pass's documentation, shown by guardianlint -help.
	Doc string
	// Run applies the pass to one package, reporting diagnostics through
	// pass.Report. The returned error aborts the whole run (reserved for
	// internal failures, not findings).
	Run func(*Pass) error
	// Finish, when non-nil, runs once after every package of a run has
	// been analyzed, reporting the whole-program directions the
	// per-package Run only accumulated evidence for (into Pass.Program).
	Finish func(*Program) []Diagnostic
}

// Pass carries one type-checked package to an Analyzer's Run function.
type Pass struct {
	// Analyzer is the pass being run.
	Analyzer *Analyzer
	// Fset maps positions for all parsed files.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's results for Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic; Run applies //lint:allow
	// suppression to it.
	Report func(Diagnostic)
	// Program is the whole-program accumulator shared by all packages of
	// one run. A pass that needs cross-package evidence (lockorder's call
	// graph) records into it and a Finish hook reports after every package
	// has run.
	Program *Program
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTest reports whether pos lies in a _test.go file. The passes do not
// check test files: a test that breaks a rule — sends a channel, holds a
// lock across a receive — does so on purpose, to assert what the runtime
// does about it.
func (p *Pass) InTest(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Message states it.
	Message string
}

// Program accumulates whole-program evidence across the packages of one
// run. It is keyed loosely (string → any) so passes own their schema;
// callgraph's shared graph is the one current client.
type Program struct {
	facts map[string]any
}

// NewProgram returns an empty accumulator.
func NewProgram() *Program {
	return &Program{facts: make(map[string]any)}
}

// Fact returns the value stored under key, creating it with mk on first
// use. Single-goroutine use only: the driver runs packages
// sequentially, mirroring go vet's per-package determinism.
func (pr *Program) Fact(key string, mk func() any) any {
	v, ok := pr.facts[key]
	if !ok {
		v = mk()
		pr.facts[key] = v
	}
	return v
}

// Finding is a diagnostic with the pass that reported it ("lint" for a
// finding about a //lint:allow directive itself).
type Finding struct {
	Diagnostic
	Pass string
}

// Run applies every analyzer to every unit, then each analyzer's Finish
// to the whole run, and filters what they report through the units'
// //lint:allow directives. It adds the allow-hygiene findings — a used
// directive with no reason, a directive that suppresses nothing — and
// returns the findings in position order with every directive, Used set,
// for the driver's inventory. cmd/guardianlint and analysistest both call
// it. The units must share one file set.
func Run(units []*load.Unit, analyzers []*Analyzer) (findings []Finding, allows []*Allow) {
	if len(units) == 0 {
		return nil, nil
	}
	fset := units[0].Fset
	for _, u := range units {
		allows = append(allows, CollectAllows(fset, u.Files)...)
	}
	report := func(pass string, d Diagnostic) {
		for _, al := range allows {
			if al.Suppresses(fset, pass, d.Pos) {
				al.Used = true
				return
			}
		}
		findings = append(findings, Finding{Diagnostic: d, Pass: pass})
	}
	prog := NewProgram()
	for _, u := range units {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: fset, Files: u.Files, Pkg: u.Pkg, TypesInfo: u.Info, Program: prog,
				Report: func(d Diagnostic) { report(a.Name, d) }}
			if err := a.Run(pass); err != nil {
				findings = append(findings, Finding{Diagnostic: Diagnostic{Message: "internal error: " + err.Error()}, Pass: a.Name})
			}
		}
	}
	for _, a := range analyzers {
		if a.Finish != nil {
			for _, d := range a.Finish(prog) {
				report(a.Name, d)
			}
		}
	}
	for _, al := range allows {
		switch {
		case !al.Used:
			findings = append(findings, Finding{Pass: "lint", Diagnostic: Diagnostic{Pos: al.Pos,
				Message: fmt.Sprintf("//lint:allow %s suppresses nothing — remove the stale directive", al.Pass)}})
		case al.Reason == "":
			findings = append(findings, Finding{Pass: "lint", Diagnostic: Diagnostic{Pos: al.Pos,
				Message: fmt.Sprintf("//lint:allow %s needs a reason", al.Pass)}})
		}
	}
	sort.SliceStable(findings, func(i, j int) bool {
		pi, pj := fset.Position(findings[i].Pos), fset.Position(findings[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return findings, allows
}
