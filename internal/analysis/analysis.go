// Package analysis is a small static-analysis framework in the spirit of
// golang.org/x/tools/go/analysis, built on the standard library only (the
// toolchain in this environment has no module network access, so the
// x/tools dependency is reimplemented to the extent the guardian passes
// need it: analyzers, passes, diagnostics, and line-comment suppression).
//
// The framework exists to make the paper's *linguistic* guarantees
// mechanical again. Liskov's CLU-based design gets its safety from the
// compiler: object addresses can never appear in messages, guardians share
// no storage, and every abstract value crossing the wire has an external
// rep with both halves of the encode/decode pair. A library reproduction
// in Go enforces none of that statically — so the passes under
// passes/ re-erect those walls at vet time.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
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
	// per-package Run only accumulated evidence for (into pass.Program).
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
	// Report delivers one diagnostic. The driver applies //lint:allow
	// suppression before printing.
	Report func(Diagnostic)
	// Program is the whole-program accumulator shared by all packages of
	// one run. Passes that need cross-package evidence (xreppair's
	// "encoder registered nowhere" direction) record into it and a Finish
	// hook reports after every package has run.
	Program *Program
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Message states it.
	Message string
}

// Program accumulates whole-program evidence across the packages of one
// run. It is keyed loosely (string → any) so passes own their
// schema; see xreppair for the only current client.
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
