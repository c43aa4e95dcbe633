// Package guardianapi centralizes what the analysis passes know about the
// repro API surface: package paths, callee resolution and named-type
// lookups.
package guardianapi

import (
	"go/ast"
	"go/types"
)

// Paths of the packages whose APIs the passes key on.
const (
	Guardian = "repro/internal/guardian"
	Amo      = "repro/internal/amo"
)

// Callee resolves who a call invokes: the defining package path, the
// receiver's named type ("" for package-level functions), and the function
// name. All empty when the callee is not a simple named function or method.
func Callee(info *types.Info, call *ast.CallExpr) (pkg, recv, name string) {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return "", "", ""
	}
	if obj == nil || obj.Pkg() == nil {
		return "", "", ""
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", "", ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = namedName(sig.Recv().Type())
	}
	return fn.Pkg().Path(), recv, fn.Name()
}

// namedName returns the name of t's named type, through one pointer.
func namedName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// FindPackage locates a package by path among root and its transitive
// imports (export data records the full import graph).
func FindPackage(root *types.Package, path string) *types.Package {
	if root == nil {
		return nil
	}
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package) *types.Package
	walk = func(p *types.Package) *types.Package {
		if seen[p] {
			return nil
		}
		seen[p] = true
		if p.Path() == path {
			return p
		}
		for _, imp := range p.Imports() {
			if hit := walk(imp); hit != nil {
				return hit
			}
		}
		return nil
	}
	return walk(root)
}

// IsNamed reports whether t (through one pointer) is the named type
// path.name.
func IsNamed(t types.Type, path, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == name
}
