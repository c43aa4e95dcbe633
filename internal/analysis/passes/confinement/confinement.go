// Package confinement enforces the paper's storage-partition rule:
// "guardians do not share storage — all communication between guardians
// is via messages" (§2.1, §3.1). The runtime already panics when a
// process receives on another guardian's port, but Go closures make it
// easy to smuggle a reference across the wall silently: a goroutine
// spawned as guardian A's process that captures guardian B's ports,
// state, or context touches B's objects without a message in sight.
//
// Two shapes are checked:
//
//   - a closure passed to (*Guardian).Spawn whose free variables include
//     guardian-owned values (Ctx, Guardian, Port, Process, Receiver)
//     rooted in a *different* guardian than the Spawn receiver;
//   - a closure installed as a GuardianDef Init or Recover body that
//     captures any guardian-owned value at all — the definition is
//     instantiated later, for a guardian that does not exist yet, so
//     every captured guardian value necessarily belongs to someone else.
//
// Ownership is traced intraprocedurally: ctx.G, g.MustNewPort(...),
// pr.Guardian(), ports[0] and simple := chains all root back to the
// variable they were derived from. Two values with distinct roots are
// presumed to belong to distinct guardians; deliberate sharing (e.g. a
// same-node inspector) takes //lint:allow confinement with a reason.
package confinement

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// guardianPkg is the runtime package whose types the pass keys on.
const guardianPkg = "repro/internal/guardian"

// Analyzer is the pass.
var Analyzer = &analysis.Analyzer{
	Name: "confinement",
	Doc:  "flag guardian process closures capturing another guardian's storage",
	Run:  run,
}

// ownedTypes are the guardian-owned types whose capture is scrutinized.
// World and Node are deliberately absent: they model the physical node,
// which colocated guardians legitimately share.
var ownedTypes = map[string]bool{
	"Guardian": true, "Port": true, "Process": true, "Ctx": true, "Receiver": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		assigns := collectAssigns(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkSpawn(pass, n, assigns)
			case *ast.CompositeLit:
				checkDefLit(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkSpawn handles g.Spawn("name", func(pr *Process) { ... }).
func checkSpawn(pass *analysis.Pass, call *ast.CallExpr, assigns map[*types.Var]ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) < 2 {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "Spawn" {
		return
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv == nil || guardianType(recv.Type()) != "Guardian" {
		return
	}
	lit, ok := ast.Unparen(call.Args[1]).(*ast.FuncLit)
	if !ok {
		return
	}
	recvRoot := rootOf(pass, sel.X, assigns, 0)
	if recvRoot == nil {
		return
	}
	for _, fv := range freeGuardianVars(pass, lit) {
		vRoot := rootObj(pass, fv, assigns)
		if vRoot == nil || vRoot == recvRoot {
			continue
		}
		pass.Reportf(lit.Pos(),
			"process closure spawned on %q captures %s (%s), owned by a different guardian — guardians share no storage",
			exprString(sel.X), fv.Name(), fv.Type())
	}
}

// checkDefLit handles GuardianDef{Init: func(ctx *Ctx){...}, Recover: ...}.
func checkDefLit(pass *analysis.Pass, lit *ast.CompositeLit) {
	t := pass.TypesInfo.Types[lit].Type
	if t == nil || guardianType(t) != "GuardianDef" {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || (key.Name != "Init" && key.Name != "Recover") {
			continue
		}
		fl, ok := ast.Unparen(kv.Value).(*ast.FuncLit)
		if !ok {
			continue
		}
		for _, fv := range freeGuardianVars(pass, fl) {
			pass.Reportf(fl.Pos(),
				"%s closure captures %s (%s) from the enclosing scope — the instantiated guardian must own no storage but its own",
				key.Name, fv.Name(), fv.Type())
		}
	}
}

// freeGuardianVars returns the guardian-owned variables lit references but
// does not declare.
func freeGuardianVars(pass *analysis.Pass, lit *ast.FuncLit) []*types.Var {
	seen := make(map[*types.Var]bool)
	var out []*types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the closure (params, locals)
		}
		if !isOwned(v.Type()) {
			return true
		}
		seen[v] = true
		out = append(out, v)
		return true
	})
	return out
}

// isOwned reports whether t (through one pointer) is a guardian-owned
// type.
func isOwned(t types.Type) bool {
	return ownedTypes[guardianType(t)]
}

// guardianType names t (through one pointer) when it is a named type of
// the guardian package, and is "" otherwise.
func guardianType(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	if obj := n.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == guardianPkg {
		return obj.Name()
	}
	return ""
}

// collectAssigns maps each singly-assigned variable in the file to its
// initializer, so ownership can be traced through g := ctx.G chains
// (variable objects are unique, so one file-wide map covers every scope).
func collectAssigns(pass *analysis.Pass, f *ast.File) map[*types.Var]ast.Expr {
	out := make(map[*types.Var]ast.Expr)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// v, err := g.NewPort(...) — a tuple assignment roots every
			// left-hand variable in the single call expression.
			tuple := len(n.Rhs) == 1 && len(n.Lhs) > 1
			if len(n.Lhs) != len(n.Rhs) && !tuple {
				return true
			}
			for i, lhs := range n.Lhs {
				if tuple {
					i = 0
				}
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := pass.TypesInfo.Defs[id].(*types.Var)
				if !ok {
					if v, ok = pass.TypesInfo.Uses[id].(*types.Var); !ok {
						continue
					}
				}
				if _, dup := out[v]; dup {
					out[v] = nil // reassigned: ownership ambiguous
				} else {
					out[v] = n.Rhs[i]
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) != len(n.Values) {
				return true
			}
			for i, id := range n.Names {
				if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
					out[v] = n.Values[i]
				}
			}
		}
		return true
	})
	return out
}

const maxRootDepth = 32

// rootObj traces variable v to its ownership root.
func rootObj(pass *analysis.Pass, v *types.Var, assigns map[*types.Var]ast.Expr) types.Object {
	if init, ok := assigns[v]; ok && init != nil {
		if r := rootOf(pass, init, assigns, 0); r != nil {
			return r
		}
		// A guardian some call returned, from an untraced helper or a
		// lookup, is its own root; a composite literal stays unknown.
		if _, ok := ast.Unparen(init).(*ast.CallExpr); ok {
			return v
		}
		return nil
	}
	return v
}

// rootOf traces an expression to the variable its guardian-owned value
// derives from: selectors, indexing, and method calls on guardian-owned
// receivers all preserve ownership. nil means the root is unknown.
func rootOf(pass *analysis.Pass, e ast.Expr, assigns map[*types.Var]ast.Expr, depth int) types.Object {
	if depth > maxRootDepth {
		return nil
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := pass.TypesInfo.Uses[e].(*types.Var)
		if !ok {
			if v, ok = pass.TypesInfo.Defs[e].(*types.Var); !ok {
				return nil
			}
		}
		if init, ok := assigns[v]; ok && init != nil {
			if r := rootOf(pass, init, assigns, depth+1); r != nil {
				return r
			}
		}
		return v
	case *ast.SelectorExpr:
		if xt := pass.TypesInfo.Types[e.X].Type; xt != nil && isOwned(xt) {
			return rootOf(pass, e.X, assigns, depth+1)
		}
		return nil
	case *ast.IndexExpr:
		return rootOf(pass, e.X, assigns, depth+1)
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if xt := pass.TypesInfo.Types[sel.X].Type; xt != nil && isOwned(xt) {
				return rootOf(pass, sel.X, assigns, depth+1)
			}
		}
		return nil
	case *ast.StarExpr:
		return rootOf(pass, e.X, assigns, depth+1)
	case *ast.UnaryExpr:
		return rootOf(pass, e.X, assigns, depth+1)
	}
	return nil
}

// exprString renders a short receiver expression for diagnostics.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	}
	return "guardian"
}
