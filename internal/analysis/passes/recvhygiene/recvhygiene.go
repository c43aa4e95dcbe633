// Package recvhygiene enforces the receive statement's mandatory arms.
// The paper's receive construct (§3.4) carries two implicit lines beyond
// the command arms: `when failure (x: string)` — the system's report that
// a send could not be honored — and `when timeout <exp>` — the only
// defense a best-effort network offers against silent loss. A receive
// loop with neither arm waits forever on messages that may never come and
// throws failure reports away unseen.
//
// Two shapes are checked:
//
//   - a guardian.NewReceiver(...) builder chain on which neither
//     WhenFailure nor WhenTimeout is ever invoked before the receiver is
//     run (chains that escape the enclosing function are given the
//     benefit of the doubt);
//   - a direct (*Process).Receive call with the Infinite timeout in a
//     function that never inspects failure (IsFailure, FailureText, or
//     the message Command) — an unbounded wait with no loss handling.
//
// A receive in a _test.go file is not checked: the test deadline is its
// timeout arm — a wedged receive fails the run with a goroutine dump
// instead of hanging a node — so tests drive lossless in-memory worlds
// with neither arm. Non-test code that genuinely wants neither takes
// //lint:allow recvhygiene with a reason.
package recvhygiene

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/guardianapi"
)

// Analyzer is the pass.
var Analyzer = &analysis.Analyzer{
	Name: "recvhygiene",
	Doc:  "flag receive statements lacking both the failure arm and the timeout arm",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if guardianapi.FindPackage(pass.Pkg, guardianapi.Guardian) == nil && pass.Pkg.Path() != guardianapi.Guardian {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTest(f.Pos()) {
			continue
		}
		parents := collectParents(f)
		fns := collectFuncs(f)
		handled := make(map[*ast.CallExpr]bool) // NewReceiver calls already covered by a longer chain
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if root, methods := chainOverNewReceiver(pass, call); root != nil {
				if !handled[root] {
					handled[root] = true
					checkChain(pass, root, call, methods, parents)
				}
				return true
			}
			checkInfiniteReceive(pass, call, fns)
			return true
		})
	}
	return nil
}

// chainOverNewReceiver decomposes call as NewReceiver(...).M1(...).M2(...)
// and returns the bottom NewReceiver call plus the chained method names,
// or nil when call is not such a chain.
func chainOverNewReceiver(pass *analysis.Pass, call *ast.CallExpr) (*ast.CallExpr, []string) {
	var methods []string
	for {
		pkg, _, name := guardianapi.Callee(pass.TypesInfo, call)
		if name == "NewReceiver" && pkg == guardianapi.Guardian {
			return call, methods
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil, nil
		}
		inner, ok := ast.Unparen(sel.X).(*ast.CallExpr)
		if !ok {
			return nil, nil
		}
		methods = append(methods, sel.Sel.Name)
		call = inner
	}
}

// checkChain inspects the maximal chain built over one NewReceiver call
// and everything later done with its value.
func checkChain(pass *analysis.Pass, root, outer *ast.CallExpr, methods []string, parents map[ast.Node]ast.Node) {
	have := make(map[string]bool, len(methods))
	for _, m := range methods {
		have[m] = true
	}

	// Where does the chain's value go?
	switch p := parents[outer].(type) {
	case *ast.ExprStmt:
		// Fully consumed here.
	case *ast.AssignStmt:
		// r := NewReceiver(...)... — collect later method calls on r, and
		// bail out if r escapes (arms may be added elsewhere).
		obj := assignedVar(pass, p, outer)
		if obj == nil {
			return
		}
		fn := enclosingFunc(parents, outer)
		if fn == nil {
			return
		}
		escaped := false
		ast.Inspect(fn, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || pass.TypesInfo.Uses[id] != obj {
				return true
			}
			if sel, ok := parents[id].(*ast.SelectorExpr); ok && sel.X == id {
				if call, ok := parents[sel].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == sel {
					have[sel.Sel.Name] = true
					// r.When(...).WhenFailure(...): follow the chain built
					// on the call's result too.
					for {
						s2, ok := parents[call].(*ast.SelectorExpr)
						if !ok {
							break
						}
						c2, ok := parents[s2].(*ast.CallExpr)
						if !ok || ast.Unparen(c2.Fun) != s2 {
							break
						}
						have[s2.Sel.Name] = true
						call = c2
					}
					return true
				}
			}
			escaped = true
			return true
		})
		if escaped {
			return
		}
	default:
		// Passed along, returned, stored: arms may be added elsewhere.
		return
	}

	if have["WhenFailure"] || have["WhenTimeout"] {
		return
	}
	pass.Reportf(root.Pos(),
		"receive has neither a failure arm (WhenFailure) nor a timeout arm (WhenTimeout) — best-effort delivery needs one (§3.4)")
}

// assignedVar returns the variable the chain value is bound to, or nil for
// multi-assignments and non-identifier targets.
func assignedVar(pass *analysis.Pass, as *ast.AssignStmt, rhs ast.Expr) types.Object {
	for i, r := range as.Rhs {
		if r != rhs || i >= len(as.Lhs) {
			continue
		}
		if id, ok := as.Lhs[i].(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				return obj
			}
			return pass.TypesInfo.Uses[id]
		}
	}
	return nil
}

// checkInfiniteReceive flags pr.Receive(Infinite, ...) in functions with
// no failure handling at all.
func checkInfiniteReceive(pass *analysis.Pass, call *ast.CallExpr, fns []ast.Node) {
	pkg, recv, name := guardianapi.Callee(pass.TypesInfo, call)
	if pkg != guardianapi.Guardian || recv != "Process" || name != "Receive" || len(call.Args) == 0 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil {
		return
	}
	if v, exact := constantInt64(tv); !exact || v >= 0 {
		return // finite timeout (or poll); the timeout arm exists
	}
	fn := innermostFunc(fns, call.Pos())
	if fn == nil || handlesFailure(pass, fn) {
		return
	}
	pass.Reportf(call.Pos(),
		"Receive with an Infinite timeout and no failure handling in scope — a lost message blocks this process forever (§3.4)")
}

func constantInt64(tv types.TypeAndValue) (int64, bool) {
	if tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// handlesFailure reports whether fn inspects message failure in any
// accepted form.
func handlesFailure(pass *analysis.Pass, fn ast.Node) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			pkg, recv, name := guardianapi.Callee(pass.TypesInfo, n)
			if pkg == guardianapi.Guardian && recv == "Message" && (name == "IsFailure" || name == "FailureText") {
				found = true
			}
		case *ast.SelectorExpr:
			// m.Command comparisons, or the FailureCommand constant.
			if obj := pass.TypesInfo.Uses[n.Sel]; obj != nil && obj.Pkg() != nil {
				if obj.Pkg().Path() == guardianapi.Guardian && obj.Name() == "FailureCommand" {
					found = true
				}
			}
			if n.Sel.Name == "Command" {
				if t := pass.TypesInfo.Types[n.X].Type; t != nil && guardianapi.IsNamed(t, guardianapi.Guardian, "Message") {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// --- small AST bookkeeping ---

// collectParents builds the child→parent map for one file.
func collectParents(f *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// collectFuncs lists every function body node in the file.
func collectFuncs(f *ast.File) []ast.Node {
	var out []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			out = append(out, n)
		}
		return true
	})
	return out
}

// innermostFunc returns the smallest function node containing pos.
func innermostFunc(fns []ast.Node, pos token.Pos) ast.Node {
	var best ast.Node
	for _, fn := range fns {
		if fn.Pos() <= pos && pos < fn.End() {
			if best == nil || (fn.Pos() >= best.Pos() && fn.End() <= best.End()) {
				best = fn
			}
		}
	}
	return best
}

// enclosingFunc walks the parent map to the nearest function node.
func enclosingFunc(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	for p := parents[n]; p != nil; p = parents[p] {
		switch p.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return p
		}
	}
	return nil
}
