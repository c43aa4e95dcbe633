// Package replyleak keeps internal routing and replication vocabulary out
// of client-visible replies.
//
// The at-most-once layer reserves the amo_moved/amo_split outcomes for
// shard routing (a server answering "not mine anymore" mid-rebalance) and
// the replica runtime's rep_* commands are peer-to-peer protocol; both are
// meaningful only to infrastructure that knows how to retry or redirect.
// If one escapes as the FINAL reply — forwarded verbatim to a caller's
// reply port, or returned from a Reply without screening — the client sees
// a transient routing artifact as its answer, which is exactly the bug
// class the PR 8 review caught at the bank router (a rep_split surfacing
// as a transfer outcome).
//
// Four rules, all per-package (no call graph needed):
//
//	R1  amo.SendReply with a reserved outcome (amo_moved/amo_split)
//	    outside package amo — SendMoved exists so the redirect carries its
//	    coordinates; a bare forwarded outcome strands the client.
//	R2  a guardian send to a reply port whose command constant is rep_*
//	    (outside replica) or amo_* (outside amo): internal vocabulary on a
//	    client-facing port.
//	R3  returning Reply.Command from a function that never mentions
//	    OutcomeMoved/OutcomeSplit: a passthrough with no screen.
//	R4  constructing amo.Reply{Command: <dynamic>} in a function with no
//	    screen: raw message data promoted to a client-visible outcome.
//
// R3/R4 apply inside package amo too — the screening in Caller.Call is the
// compliant exemplar, not an exemption.
package replyleak

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/guardianapi"
)

// Analyzer is the replyleak pass.
var Analyzer = &analysis.Analyzer{
	Name: "replyleak",
	Doc:  "keep internal routing constants (amo_moved/amo_split, rep_*) out of client-visible replies",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.InTest(f.Pos()) {
			continue // tests assert on protocol internals by design
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// checkFunc applies the four rules inside one function declaration
// (nested literals count as part of it: a screen anywhere in the
// declaration covers the whole handler).
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	screened := mentionsOutcome(pass, fd)
	pkg := pass.Pkg.Path()

	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, pkg, n)
		case *ast.ReturnStmt:
			if screened {
				return true
			}
			for _, res := range n.Results {
				if sel, ok := res.(*ast.SelectorExpr); ok && sel.Sel.Name == "Command" && isAmoReply(pass, sel.X) {
					pass.Reportf(sel.Pos(), "amo.Reply.Command returned without screening amo_moved/amo_split (a routing outcome would become the final answer)")
				}
			}
		case *ast.CompositeLit:
			if screened {
				return true
			}
			if !isAmoReplyType(pass.TypesInfo.Types[n].Type) {
				return true
			}
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if id, ok := kv.Key.(*ast.Ident); !ok || id.Name != "Command" {
					continue
				}
				if pass.TypesInfo.Types[kv.Value].Value != nil {
					continue // a fixed command constant cannot smuggle routing vocabulary
				}
				pass.Reportf(kv.Value.Pos(), "amo.Reply constructed from raw message data without screening amo_moved/amo_split")
			}
		}
		return true
	})
}

// checkCall applies R1 and R2 to one call.
func checkCall(pass *analysis.Pass, pkg string, call *ast.CallExpr) {
	cpkg, recv, name := guardianapi.Callee(pass.TypesInfo, call)

	// R1: amo.SendReply with a reserved outcome, outside amo.
	if cpkg == guardianapi.Amo && recv == "" && name == "SendReply" && pkg != guardianapi.Amo {
		if len(call.Args) > 2 {
			if v, ok := constString(pass, call.Args[2]); ok && (v == "amo_moved" || v == "amo_split") {
				pass.Reportf(call.Args[2].Pos(), "internal routing outcome %s must not be sent as a client reply (use amo.SendMoved so the redirect carries its coordinates)", v)
			}
		}
		return
	}

	// R2: guardian send to a reply port with internal protocol vocabulary.
	if cpkg != guardianapi.Guardian || recv != "Process" {
		return
	}
	var destIdx, cmdIdx int
	switch name {
	case "Send":
		destIdx, cmdIdx = 0, 1
	case "SendReplyTo":
		destIdx, cmdIdx = 0, 2
	case "SendChecked":
		destIdx, cmdIdx = 1, 2
	case "SendCheckedReplyTo":
		destIdx, cmdIdx = 1, 3
	default:
		return
	}
	if cmdIdx >= len(call.Args) || !replyDest(call.Args[destIdx]) {
		return
	}
	v, ok := constString(pass, call.Args[cmdIdx])
	if !ok {
		return
	}
	switch {
	case strings.HasPrefix(v, "rep_") && pkg != "repro/internal/replica":
		pass.Reportf(call.Args[cmdIdx].Pos(), "internal protocol command %q escapes to a client reply port", v)
	case strings.HasPrefix(v, "amo_") && pkg != guardianapi.Amo:
		pass.Reportf(call.Args[cmdIdx].Pos(), "internal protocol command %q escapes to a client reply port", v)
	}
}

// mentionsOutcome reports whether fd anywhere names OutcomeMoved or
// OutcomeSplit (by constant identity or literal value) — the screening
// that makes a Command passthrough deliberate.
func mentionsOutcome(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			switch constant.StringVal(tv.Value) {
			case "amo_moved", "amo_split":
				found = true
			}
		}
		return !found
	})
	return found
}

// constString evaluates e as a compile-time string constant.
func constString(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// isAmoReply reports whether e's type is amo.Reply (or a pointer to it).
func isAmoReply(pass *analysis.Pass, e ast.Expr) bool {
	return isAmoReplyType(pass.TypesInfo.Types[e].Type)
}

func isAmoReplyType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Reply" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == guardianapi.Amo
}

// replyDest mirrors the callgraph package's reply-port recognition: the
// destination derives from a message's ReplyTo or an idiomatically named
// reply port.
func replyDest(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if n.Sel.Name == "ReplyTo" {
				found = true
			}
		case *ast.Ident:
			switch n.Name {
			case "replyTo", "client", "caller", "reply":
				found = true
			}
		}
		return !found
	})
	return found
}
