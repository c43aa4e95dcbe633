// Package load type-checks packages for the guardian analysis passes
// without golang.org/x/tools: it parses source with go/parser and resolves
// imports from compiler export data. Two front ends feed it — the `go list
// -export` driver (List, CheckListed) and the golden-test harness
// (analysistest) — both reducing to Check.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"
)

// Unit is one parsed, type-checked package ready for analysis.
type Unit struct {
	// ID is the build-system identifier (go list ImportPath, which for
	// test variants carries a " [pkg.test]" suffix).
	ID string
	// Fset maps the unit's positions.
	Fset *token.FileSet
	// Files are the parsed syntax trees, with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds type-checker results.
	Info *types.Info
}

// Check parses filenames and type-checks them as package path, resolving
// imports through imp. It is the common trunk of both front ends.
func Check(fset *token.FileSet, id, path string, filenames []string, imp types.Importer) (*Unit, error) {
	files := make([]*ast.File, 0, len(filenames))
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", fn, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", "amd64"),
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", id, err)
	}
	return &Unit{ID: id, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// ExportImporter resolves imports from compiler export data. Source import
// paths are first translated through importMap (test variants of a package
// shadow the plain build), then looked up in packageFile, which maps the
// translated path to an export-data file.
func ExportImporter(fset *token.FileSet, importMap map[string]string, packageFile map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := packageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return &unsafeAware{importer.ForCompiler(fset, "gc", lookup)}
}

// unsafeAware wraps the gc importer with the special case the export-data
// path cannot serve: package unsafe has no export file.
type unsafeAware struct{ imp types.Importer }

func (u *unsafeAware) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return u.imp.Import(path)
}

// ListPkg is the subset of `go list -json` output the driver consumes.
type ListPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	DepOnly    bool
	ForTest    string
	ImportMap  map[string]string
	Incomplete bool
	Error      *struct{ Err string }
}

// List runs `go list -test -export -deps -json` over patterns in dir and
// returns every listed package keyed by ImportPath. Export data is built
// as a side effect, so the returned descriptors are ready for
// ExportImporter.
func List(dir string, patterns ...string) (map[string]*ListPkg, []string, error) {
	args := []string{"list", "-e", "-test", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,CgoFiles,Export,Standard,DepOnly,ForTest,ImportMap,Incomplete,Error"}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	pkgs := make(map[string]*ListPkg)
	var order []string
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p ListPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs[p.ImportPath] = &p
		order = append(order, p.ImportPath)
	}
	return pkgs, order, nil
}

// Targets selects, from a List result, the units to analyze (everything
// that was matched by the patterns rather than pulled in as a dependency),
// mirroring go vet's choices: test variants replace their plain package
// (their file set is a superset), external test packages are analyzed in
// their own right, and generated .test mains are skipped.
func Targets(pkgs map[string]*ListPkg, order []string) []*ListPkg {
	// A variant "p [p.test]" supersedes plain p.
	superseded := make(map[string]bool)
	for _, id := range order {
		p := pkgs[id]
		if p.ForTest != "" && !p.DepOnly && !strings.HasSuffix(p.ImportPath, ".test") &&
			!strings.HasPrefix(p.ImportPath, p.ForTest+"_test ") {
			superseded[p.ForTest] = true
		}
	}
	var out []*ListPkg
	for _, id := range order {
		p := pkgs[id]
		switch {
		case p.DepOnly, p.Standard:
		case strings.HasSuffix(p.ImportPath, ".test"):
		case len(p.GoFiles) == 0:
		case p.ForTest == "" && superseded[p.ImportPath]:
		default:
			out = append(out, p)
		}
	}
	return out
}

// PackageFiles builds the path→export-file map for one unit's importer
// from the whole List result.
func PackageFiles(pkgs map[string]*ListPkg) map[string]string {
	m := make(map[string]string, len(pkgs))
	for id, p := range pkgs {
		if p.Export != "" {
			m[id] = p.Export
		}
	}
	return m
}

// CheckListed type-checks one go list package against the run's export
// map.
func CheckListed(fset *token.FileSet, p *ListPkg, packageFile map[string]string) (*Unit, error) {
	if len(p.CgoFiles) > 0 {
		return nil, fmt.Errorf("%s: cgo packages are not supported", p.ImportPath)
	}
	files := make([]string, 0, len(p.GoFiles))
	for _, f := range p.GoFiles {
		if !strings.HasPrefix(f, "/") {
			f = p.Dir + "/" + f
		}
		files = append(files, f)
	}
	// The type-checker wants the bare package path; strip a test-variant
	// suffix.
	path := p.ImportPath
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	imp := ExportImporter(fset, p.ImportMap, packageFile)
	return Check(fset, p.ImportPath, path, files, imp)
}
