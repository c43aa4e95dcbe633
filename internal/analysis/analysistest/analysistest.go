// Package analysistest runs an analyzer over golden packages under
// testdata/src and checks its diagnostics against // want comments, in the
// spirit of golang.org/x/tools/go/analysis/analysistest (reimplemented on
// the standard library; see package analysis for why).
//
// A golden file marks each expected finding on its own line:
//
//	pr.Send(dst, "put", &v) // want `address-bearing value in message`
//
// The comment holds one or more Go string literals, each a regexp that must
// match one diagnostic reported on that line. Diagnostics with no matching
// want, and wants with no matching diagnostic, fail the test. //lint:allow
// directives in golden files go through analysis.Run like the driver's, so
// a stale or reason-less directive fails the golden test as it fails CI.
//
// Golden packages import the real repro packages; imports resolve from
// export data produced by `go list -export -deps` at the module root. The
// testdata/src layout keeps the golden sources outside the module's own
// build graph.
package analysistest

import (
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// Run analyzes testdata/src/<pkg> for each pkg as one run — every unit
// through a's Run, then a's Finish over all of them, then allow hygiene —
// and matches the findings against the // want comments.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	exp, err := moduleExports()
	if err != nil {
		t.Fatalf("building export data: %v", err)
	}

	fset := token.NewFileSet()
	var units []*load.Unit
	for _, pkg := range pkgs {
		dir := filepath.Join("testdata", "src", pkg)
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading golden package %s: %v", pkg, err)
		}
		var files []string
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				files = append(files, filepath.Join(dir, e.Name()))
			}
		}
		if len(files) == 0 {
			t.Fatalf("golden package %s has no .go files", pkg)
		}
		imp := load.ExportImporter(fset, nil, exp)
		u, err := load.Check(fset, pkg, pkg, files, imp)
		if err != nil {
			t.Fatalf("typechecking golden package %s: %v", pkg, err)
		}
		units = append(units, u)
	}
	findings, _ := analysis.Run(units, []*analysis.Analyzer{a})
	match(t, fset, findings, collectWants(t, fset, units))
}

// want is one expectation: a regexp that must match a diagnostic on line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// collectWants scans every golden file for // want comments.
func collectWants(t *testing.T, fset *token.FileSet, units []*load.Unit) []*want {
	t.Helper()
	var out []*want
	for _, u := range units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := c.Text
					if !strings.HasPrefix(text, "// want ") && !strings.HasPrefix(text, "//want ") {
						continue
					}
					rest := strings.TrimSpace(text[strings.Index(text, "want ")+len("want "):])
					pos := fset.Position(c.Pos())
					for _, lit := range stringLits(t, pos, rest) {
						re, err := regexp.Compile(lit)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, lit, err)
						}
						out = append(out, &want{file: pos.Filename, line: pos.Line, re: re, raw: lit})
					}
				}
			}
		}
	}
	return out
}

// stringLits parses a sequence of Go string literals from s.
func stringLits(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	var sc scanner.Scanner
	fs := token.NewFileSet()
	file := fs.AddFile("want", -1, len(s))
	sc.Init(file, []byte(s), nil, 0)
	for {
		_, tok, lit := sc.Scan()
		if tok == token.EOF || tok == token.SEMICOLON {
			break
		}
		if tok != token.STRING {
			t.Fatalf("%s: want comment must hold string literals, got %v", pos, tok)
		}
		v, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: bad string in want comment: %v", pos, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		t.Fatalf("%s: want comment holds no expectations", pos)
	}
	return out
}

// match pairs findings with wants one-to-one and reports the leftovers.
func match(t *testing.T, fset *token.FileSet, findings []analysis.Finding, wants []*want) {
	t.Helper()
	for _, f := range findings {
		p := fset.Position(f.Pos)
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == p.Filename && w.line == p.Line && w.re.MatchString(f.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s [%s]", p, f.Message, f.Pass)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}

var (
	exportsOnce sync.Once
	exportsMap  map[string]string
	exportsErr  error
)

// moduleExports lists the whole module once per test process and returns
// the import-path → export-data map golden packages resolve against.
func moduleExports() (map[string]string, error) {
	exportsOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			exportsErr = err
			return
		}
		pkgs, _, err := load.List(root, "./...")
		if err != nil {
			exportsErr = err
			return
		}
		m := load.PackageFiles(pkgs)
		// Test variants carry " [pkg.test]" IDs; golden code imports the
		// plain paths, which List also emits, so no translation is needed.
		for id := range m {
			if i := strings.Index(id, " ["); i >= 0 {
				delete(m, id)
			}
		}
		exportsMap = m
	})
	return exportsMap, exportsErr
}

// moduleRoot walks up from the working directory to go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return dir, os.ErrNotExist
		}
		dir = parent
	}
}
