// Package callgraph grows the per-package AST framework into a
// whole-program one: it reduces every function the driver sees
// to a summary of the events the interaction-safety passes care about —
// lock acquisitions and releases, blocking operations (forced durable
// writes among them), and calls — and composes
// the summaries over a CHA-style call graph so a pass can ask "what does
// this call transitively reach?" across package boundaries.
//
// The design trades precision for stdlib-only buildability, in the spirit
// of Minsky's law-governed interaction: the point is machinery OUTSIDE the
// components that enforces protocol obligations mechanically, not a proof.
// The approximations, all deliberate:
//
//   - Call edges are class-hierarchy style: a call through an interface
//     method resolves to every known concrete method of that name whose
//     owner also provides the rest of the interface's methods. No pointer
//     analysis, so unrelated same-shaped types over-approximate.
//   - Calls through function values (fields, params, locals) resolve only
//     for direct literal invocation; a stored handler is analyzed as its
//     own entry point instead of at its call sites.
//   - Event order inside one function is source order — path-insensitive —
//     with two refinements. A lock release on an exit path (immediately
//     followed by return/break/continue/goto/panic) does not clear the
//     fall-through held-set, so the ubiquitous `mu.Lock(); if bad {
//     mu.Unlock(); return }; work…` idiom keeps `work` inside the held
//     region — UNLESS the release sits in the same statement list as its
//     matching acquire, in which case there is no locked fall-through (the
//     terminator leaves the block the pair lives in) and the release is
//     final. And a function that releases a lock class before acquiring it
//     (the `flushAsLeader`-style ownership hand-off: entered with the mutex
//     held, returns with it released) does not export that acquisition to
//     callers — from the caller's perspective the lock changed hands, it
//     was not taken twice. A full CFG is deliberately out of scope.
//   - `go` statements sever the edge (the spawned body runs outside the
//     caller's locks, and is summarized as its own entry point); deferred
//     calls other than unlocks are dropped (their interleaving with
//     deferred unlocks is beyond source-order precision).
//
// Every analyzed package records into one shared Graph (via
// analysis.Program) and whole-program queries see the union.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Kind classifies one summarized event.
type Kind int

// Event kinds, in the order a pass usually switches over them.
const (
	// KAcquire is a mutex acquisition (Lock, RLock, TryLock, TryRLock).
	KAcquire Kind = iota
	// KRelease is a mutex release (Unlock, RUnlock).
	KRelease
	// KBlock is an operation that can block the goroutine indefinitely or
	// against I/O: a guardian receive or pause, an at-most-once call, a
	// synchronous call helper, a durable forced write, a channel operation
	// with no default, a WaitGroup wait.
	KBlock
	// KCall is a statically resolved call to a repro function or method.
	KCall
	// KICall is a call through an interface method, to be resolved
	// CHA-style against every known implementation.
	KICall
)

// Event is one summarized operation inside a function, in source order.
type Event struct {
	Kind Kind
	// Pos locates the operation.
	Pos token.Pos
	// Class carries the kind-specific key: the lock class for
	// KAcquire/KRelease, the callee key for KCall, the method name for
	// KICall, a stable short tag otherwise.
	Class string
	// Detail is the human phrasing used in diagnostics ("Process.Receive",
	// "channel send", "durable.Log.AppendSync", …).
	Detail string
	// Deferred marks an event inside a defer statement (only releases are
	// summarized deferred; a deferred unlock holds to function end).
	Deferred bool
	// Exits marks a release on an exit path: the statement (or its
	// enclosing block) is immediately followed by return, break, continue,
	// goto, or panic, so the fall-through code still holds the lock.
	Exits bool
	// TermEnd, for Exits releases, is the End position of the terminating
	// statement that follows: events positioned inside it (a call in the
	// return expression) run AFTER the release and are genuinely unlocked,
	// while events past it are the fall-through that still holds.
	TermEnd token.Pos
	// Block, for KAcquire/KRelease, identifies the statement list the lock
	// call sits in (the enclosing block or clause position). An Exits
	// release whose Block matches its acquire's is a straight-line pair —
	// the terminator leaves the block both live in, so nothing on the
	// fall-through still holds the lock.
	Block token.Pos
	// IfaceMethods, for KICall, is the called interface's full method-name
	// set, used to screen CHA candidates.
	IfaceMethods []string
	// SelfType, for a KICall of the form x.field.M(), keys the named type
	// of the base value x. CHA candidates owned by that type are excluded:
	// a value delegating through an interface-typed field back to its own
	// type is wrapping a DIFFERENT instance, and under per-type lock
	// classes the self-candidate only manufactures false re-entrancy.
	SelfType string
}

// FuncSum is one function's summary.
type FuncSum struct {
	// Key identifies the function: "pkg.Name", "pkg.(Recv).Name", or
	// "<enclosing>$<n>" for a function literal.
	Key string
	// Name is the display form used in diagnostic chains.
	Name string
	// Pkg is the defining package path.
	Pkg string
	// Pos is the function's position.
	Pos token.Pos
	// OwnerType, for methods, keys the receiver's named type ("pkg.Type").
	OwnerType string
	// Events are the function's summarized operations in source order.
	Events []Event
}

// Graph is the (whole-program or single-package) summary collection.
type Graph struct {
	// Funcs maps function key → summary.
	Funcs map[string]*FuncSum
	// Methods maps a method name to every function key declaring it.
	Methods map[string][]string
	// TypeMethods maps an OwnerType key to its declared method-name set.
	TypeMethods map[string]map[string]bool

	pkgs  map[*types.Package]bool
	reach map[string]*Reach
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		Funcs:       make(map[string]*FuncSum),
		Methods:     make(map[string][]string),
		TypeMethods: make(map[string]map[string]bool),
		pkgs:        make(map[*types.Package]bool),
	}
}

// graphKey is the analysis.Program fact key the shared graph lives under.
const graphKey = "callgraph.graph"

// Of returns the graph for this pass's run, recording the pass's package
// into it on first sight. The graph is shared by every package and every
// pass of the run.
//
// Files ending in _test.go are not summarized: tests hold locks across
// blocking calls and reply out of order on purpose (fault injection,
// deadline probes), and flagging them would bury the signal under an
// allowlist of intentional violations.
func Of(pass *analysis.Pass) *Graph {
	g := From(pass.Program)
	if !g.pkgs[pass.Pkg] {
		g.pkgs[pass.Pkg] = true
		g.reach = nil // new summaries invalidate memoized closures
		ex := &extractor{g: g, pkg: pass.Pkg, info: pass.TypesInfo}
		for _, f := range pass.Files {
			if pass.InTest(f.Pos()) {
				continue
			}
			ex.file(f)
		}
	}
	return g
}

// From returns the shared graph accumulated by a run's Run
// phases, for use in an Analyzer.Finish hook. Nil when no package
// recorded (the analyzers were never run).
func From(prog *analysis.Program) *Graph {
	g, _ := prog.Fact(graphKey, func() any { return New() }).(*Graph)
	return g
}

// --- extraction ---

// extractor builds FuncSums for one package.
type extractor struct {
	g    *Graph
	pkg  *types.Package
	info *types.Info

	cur    *FuncSum
	litSeq map[string]int
	// skipComm holds the Comm statements of select clauses whose channel
	// operations are already covered (by the select's own KBlock, or by a
	// default clause making them non-blocking).
	skipComm map[ast.Stmt]bool
	// exitAfter maps call expressions whose enclosing statement is
	// immediately followed by a terminating statement (return, break,
	// continue, goto, panic) in the same block to that terminator's End.
	exitAfter map[*ast.CallExpr]token.Pos
	// stmtList maps every expression-statement call to the position of the
	// statement list (block or clause) it sits in, so acquire/release pairs
	// can be recognized as straight-line or nested.
	stmtList map[*ast.CallExpr]token.Pos
}

func (ex *extractor) file(f *ast.File) {
	ex.litSeq = make(map[string]int)
	ex.exitAfter = make(map[*ast.CallExpr]token.Pos)
	ex.stmtList = make(map[*ast.CallExpr]token.Pos)
	markExitCalls(f, ex.exitAfter, ex.stmtList)
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		sum := &FuncSum{
			Key:  ex.declKey(fd),
			Name: declName(fd),
			Pkg:  ex.pkg.Path(),
			Pos:  fd.Pos(),
		}
		if fd.Recv != nil {
			sum.OwnerType = ex.recvTypeKey(fd)
			if sum.OwnerType != "" {
				ms := ex.g.TypeMethods[sum.OwnerType]
				if ms == nil {
					ms = make(map[string]bool)
					ex.g.TypeMethods[sum.OwnerType] = ms
				}
				ms[fd.Name.Name] = true
				ex.g.Methods[fd.Name.Name] = append(ex.g.Methods[fd.Name.Name], sum.Key)
			}
		}
		ex.g.Funcs[sum.Key] = sum
		ex.walkFunc(sum, fd.Body)
	}
}

// walkFunc summarizes one function body into sum, creating separate
// summaries (and, for direct invocations, call edges) for nested literals.
func (ex *extractor) walkFunc(sum *FuncSum, body *ast.BlockStmt) {
	prev, prevSkip := ex.cur, ex.skipComm
	ex.cur, ex.skipComm = sum, make(map[ast.Stmt]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lit := &FuncSum{
				Key:  ex.litKey(sum.Key),
				Name: litName(sum.Name),
				Pkg:  sum.Pkg,
				Pos:  n.Pos(),
			}
			ex.g.Funcs[lit.Key] = lit
			ex.walkFunc(lit, n.Body)
			return false // the literal's events belong to lit, not sum
		case *ast.GoStmt:
			// The spawned call runs outside this function's locks; its
			// body (literal or named) is summarized as its own entry
			// point. Walk the call's arguments only.
			for _, a := range n.Call.Args {
				ast.Inspect(a, func(m ast.Node) bool { return ex.visit(m) })
			}
			if lit, ok := unparen(n.Call.Fun).(*ast.FuncLit); ok {
				l := &FuncSum{Key: ex.litKey(sum.Key), Name: litName(sum.Name), Pkg: sum.Pkg, Pos: lit.Pos()}
				ex.g.Funcs[l.Key] = l
				ex.walkFunc(l, lit.Body)
			}
			return false
		case *ast.DeferStmt:
			// Only deferred unlocks are summarized (held-to-end); other
			// deferred effects are beyond source-order precision.
			if cls, name, ok := ex.lockCall(n.Call); ok && (name == "Unlock" || name == "RUnlock") {
				ex.emit(Event{Kind: KRelease, Pos: n.Call.Pos(), Class: cls, Detail: name, Deferred: true})
			}
			for _, a := range n.Call.Args {
				ast.Inspect(a, func(m ast.Node) bool { return ex.visit(m) })
			}
			return false
		}
		return ex.visit(n)
	})
	ex.cur, ex.skipComm = prev, prevSkip
}

// visit summarizes one node in the current function; the return value
// follows ast.Inspect's contract.
func (ex *extractor) visit(n ast.Node) bool {
	switch n := n.(type) {
	case nil:
		return true
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range n.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm == nil {
				hasDefault = true
			} else {
				ex.skipComm[cc.Comm] = true
			}
		}
		if !hasDefault {
			ex.emit(Event{Kind: KBlock, Pos: n.Pos(), Class: "select", Detail: "select with no default"})
		}
		return true
	case *ast.SendStmt:
		if !ex.inSkippedComm(n) {
			ex.emit(Event{Kind: KBlock, Pos: n.Pos(), Class: "chansend", Detail: "channel send with no default"})
		}
		return true
	case *ast.UnaryExpr:
		if n.Op == token.ARROW && !ex.inSkippedComm(n) {
			ex.emit(Event{Kind: KBlock, Pos: n.Pos(), Class: "chanrecv", Detail: "channel receive with no default"})
		}
		return true
	case *ast.CallExpr:
		ex.call(n)
		return true
	}
	return true
}

// inSkippedComm reports whether n is (part of) a select comm statement
// already covered by the select's own summary.
func (ex *extractor) inSkippedComm(n ast.Node) bool {
	for s := range ex.skipComm {
		if s.Pos() <= n.Pos() && n.End() <= s.End() {
			return true
		}
	}
	return false
}

func (ex *extractor) emit(e Event) {
	ex.cur.Events = append(ex.cur.Events, e)
}

// call classifies one call expression.
func (ex *extractor) call(call *ast.CallExpr) {
	// Direct literal invocation: (func(){…})() — edge to the literal,
	// which walkFunc will summarize when Inspect reaches it.
	if _, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		// The literal key it WILL get is the next sequence number; emitting
		// the call edge here and the summary at the FuncLit visit keeps
		// them aligned because Inspect reaches the FuncLit right after.
		ex.emit(Event{Kind: KCall, Pos: call.Pos(), Class: ex.peekLitKey(ex.cur.Key), Detail: "literal call"})
		return
	}

	if cls, name, ok := ex.lockCall(call); ok {
		switch name {
		case "Lock", "RLock", "TryLock", "TryRLock":
			ex.emit(Event{Kind: KAcquire, Pos: call.Pos(), Class: cls, Detail: name, Block: ex.stmtList[call]})
		case "Unlock", "RUnlock":
			end := ex.exitAfter[call]
			ex.emit(Event{Kind: KRelease, Pos: call.Pos(), Class: cls, Detail: name, Exits: end != 0, TermEnd: end, Block: ex.stmtList[call]})
		}
		return
	}

	obj := calleeObject(ex.info, call)
	fn, _ := obj.(*types.Func)
	if fn == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}

	// Known blocking operations, by API identity.
	if sig != nil && sig.Recv() != nil {
		recvName := namedOrIfaceName(sig.Recv().Type())
		switch {
		case pkgPath == "repro/internal/guardian" && recvName == "Process" && (fn.Name() == "Receive" || fn.Name() == "Pause"):
			ex.emit(Event{Kind: KBlock, Pos: call.Pos(), Class: "recv", Detail: "guardian Process." + fn.Name()})
			return
		case pkgPath == "repro/internal/amo" && recvName == "Caller" && fn.Name() == "Call":
			ex.emit(Event{Kind: KBlock, Pos: call.Pos(), Class: "amocall", Detail: "amo Caller.Call"})
			return
		case pkgPath == "repro/internal/sendprim" && recvName == "Exchange" && fn.Name() == "Run":
			ex.emit(Event{Kind: KBlock, Pos: call.Pos(), Class: "syncsend", Detail: "sendprim Exchange.Run"})
			return
		case pkgPath == "sync" && fn.Name() == "Wait" && recvName == "WaitGroup":
			ex.emit(Event{Kind: KBlock, Pos: call.Pos(), Class: "wgwait", Detail: "sync.WaitGroup.Wait"})
			return
		}
		// Log-like receivers: Sync/AppendSync/Checkpoint are forced
		// (blocking) writes. Recognized by shape (Append alongside
		// Sync/AppendSync) rather than import path, so private log seams
		// and golden-fixture logs count like durable.Log.
		if logLike(sig.Recv().Type()) {
			switch fn.Name() {
			case "Sync", "AppendSync", "Checkpoint":
				ex.emit(Event{Kind: KBlock, Pos: call.Pos(), Class: "sync", Detail: "forced durable write " + recvName + "." + fn.Name()})
				return
			}
		}
	}
	if pkgPath == "repro/internal/sendprim" && sig != nil && sig.Recv() == nil && (fn.Name() == "Call" || fn.Name() == "SyncSend") {
		ex.emit(Event{Kind: KBlock, Pos: call.Pos(), Class: "syncsend", Detail: "sendprim." + fn.Name()})
		return
	}

	// Every remaining call gets an edge; resolution quietly fails for
	// functions never summarized (stdlib, unanalyzed packages), so the
	// edges cost nothing when the callee is out of scope.

	// Interface method call → CHA edge.
	if sig != nil && sig.Recv() != nil {
		if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			names := make([]string, 0, iface.NumMethods())
			for i := 0; i < iface.NumMethods(); i++ {
				names = append(names, iface.Method(i).Name())
			}
			ex.emit(Event{Kind: KICall, Pos: call.Pos(), Class: fn.Name(), Detail: "interface call " + fn.Name(), IfaceMethods: names, SelfType: ex.receiverBaseType(call)})
			return
		}
		recvName := namedOrIfaceName(sig.Recv().Type())
		if recvName != "" {
			ex.emit(Event{Kind: KCall, Pos: call.Pos(), Class: pkgPath + ".(" + recvName + ")." + fn.Name(), Detail: recvName + "." + fn.Name()})
			return
		}
	}
	ex.emit(Event{Kind: KCall, Pos: call.Pos(), Class: pkgPath + "." + fn.Name(), Detail: fn.Name()})
}

// lockCall reports whether call is a sync.Mutex/RWMutex method, returning
// the lock class and method name.
func (ex *extractor) lockCall(call *ast.CallExpr) (class, name string, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, _ := ex.info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", "", false
	}
	recv := namedOrIfaceName(sig.Recv().Type())
	if recv != "Mutex" && recv != "RWMutex" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
		return ex.lockClass(sel.X), fn.Name(), true
	}
	return "", "", false
}

// lockClass names the mutex a lock method is invoked on. A field `x.mu`
// classes as "pkg.TypeOfX.mu" so every instance of a type shares one
// class; a package-level var classes as "pkg.var"; anything else falls
// back to the receiver expression's type or text.
func (ex *extractor) lockClass(x ast.Expr) string {
	x = unparen(x)
	switch x := x.(type) {
	case *ast.SelectorExpr:
		if t := ex.info.Types[x.X].Type; t != nil {
			if owner := typeKey(t); owner != "" {
				return owner + "." + x.Sel.Name
			}
		}
		return exprString(x)
	case *ast.Ident:
		if obj := ex.info.Uses[x]; obj != nil {
			if obj.Parent() == ex.pkg.Scope() {
				return ex.pkg.Path() + "." + x.Name
			}
			owner := typeKey(obj.Type())
			switch owner {
			case "sync.Mutex", "sync.RWMutex", "":
				// A plain local/parameter mutex: class on the enclosing
				// function so same-named locals elsewhere never alias.
				return ex.cur.Key + ":" + x.Name
			}
			// A receiver or parameter whose type embeds the mutex
			// (r.Lock() through promotion): class on the TYPE, not the
			// variable name, so (r *T) and (rt *T) methods unify.
			return owner + ".Mutex"
		}
	}
	return exprString(x)
}

// markExitCalls records, for every call expression that forms an ExprStmt,
// the position of the statement list it sits in (into lists), and — when
// its next sibling terminates control flow (return, break, continue, goto,
// panic) — that terminator's End position (into exits).
func markExitCalls(f *ast.File, exits, lists map[*ast.CallExpr]token.Pos) {
	markList := func(id token.Pos, list []ast.Stmt) {
		for i := 0; i < len(list); i++ {
			es, ok := list[i].(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := unparen(es.X).(*ast.CallExpr)
			if !ok {
				continue
			}
			lists[call] = id
			if i+1 < len(list) && terminates(list[i+1]) {
				exits[call] = list[i+1].End()
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			markList(n.Pos(), n.List)
		case *ast.CaseClause:
			markList(n.Pos(), n.Body)
		case *ast.CommClause:
			markList(n.Pos(), n.Body)
		}
		return true
	})
}

// receiverBaseType keys the named type of the base value of a call of the
// form x.field.M() (possibly deeper selections): the type of x. It returns
// "" when the receiver is not reached through a field selection or the
// base is not a named non-interface type — forms for which "delegating
// back into its own type" has no meaning.
func (ex *extractor) receiverBaseType(call *ast.CallExpr) string {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	recv, ok := unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return "" // plain x.M(): x IS the interface value, no wrapping base
	}
	base := unparen(recv.X)
	for {
		s, ok := base.(*ast.SelectorExpr)
		if !ok {
			break
		}
		base = unparen(s.X)
	}
	t := ex.info.TypeOf(base)
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if _, ok := t.Underlying().(*types.Interface); ok {
		return ""
	}
	return typeKey(t)
}

// terminates reports whether s unconditionally leaves the enclosing block.
func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// litName names a function literal after its outermost named encloser:
// a literal nested in another literal stays "<fn> literal" rather than
// stuttering a suffix per nesting level.
func litName(enclosing string) string {
	if strings.HasSuffix(enclosing, " literal") {
		return enclosing
	}
	return enclosing + " literal"
}

// litKey mints the next literal key under enclosing.
func (ex *extractor) litKey(enclosing string) string {
	ex.litSeq[enclosing]++
	return fmt.Sprintf("%s$%d", enclosing, ex.litSeq[enclosing])
}

// peekLitKey names the literal key the NEXT litKey call will mint.
func (ex *extractor) peekLitKey(enclosing string) string {
	return fmt.Sprintf("%s$%d", enclosing, ex.litSeq[enclosing]+1)
}

func (ex *extractor) declKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return ex.pkg.Path() + "." + fd.Name.Name
	}
	if k := ex.recvTypeKey(fd); k != "" {
		return ex.pkg.Path() + ".(" + k[strings.LastIndex(k, ".")+1:] + ")." + fd.Name.Name
	}
	return ex.pkg.Path() + ".(?)." + fd.Name.Name
}

// recvTypeKey returns "pkg.Type" for a method's receiver.
func (ex *extractor) recvTypeKey(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return ""
	}
	t := ex.info.Types[fd.Recv.List[0].Type].Type
	if t == nil {
		if len(fd.Recv.List[0].Names) > 0 {
			if obj := ex.info.Defs[fd.Recv.List[0].Names[0]]; obj != nil {
				t = obj.Type()
			}
		}
	}
	if t == nil {
		return ""
	}
	return typeKey(t)
}

// --- shared type helpers ---

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeObject resolves the object a call's function expression names.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// namedOrIfaceName returns t's named-type name through one pointer, or ""
// for anonymous types.
func namedOrIfaceName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// typeKey returns "pkgpath.Name" for t's named type through one pointer.
func typeKey(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// logLike reports whether t (named, pointer-to-named, or interface) offers
// the durable-log contract — an Append alongside a Sync or AppendSync —
// which is how the summaries recognize "this method call is the
// durability protocol" without import-path allowlists (tpc's private
// logAppender seam counts exactly like durable.Log).
func logLike(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		has := map[string]bool{}
		for i := 0; i < iface.NumMethods(); i++ {
			has[iface.Method(i).Name()] = true
		}
		return has["Append"] && (has["Sync"] || has["AppendSync"])
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(n))
	lookup := func(name string) bool {
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == name {
				return true
			}
		}
		return false
	}
	return lookup("Append") && (lookup("Sync") || lookup("AppendSync"))
}

// exprString renders a short expression for class names.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	case *ast.IndexExpr:
		return exprString(e.X) + "[…]"
	}
	return "expr"
}

// --- composition (whole-program closure) ---

// Site is one (description, position) a closure query can reach, with the
// immediate callee that provides it ("" when direct).
type Site struct {
	Detail string
	Pos    token.Pos
	Via    string
}

// Reach is the transitive effect closure of one function: every blocking
// operation and every lock acquisition its calls can reach.
type Reach struct {
	// Blocks maps "detail@pos" → Site for reachable blocking operations.
	Blocks map[string]Site
	// Acquires maps lock class → Site for reachable acquisitions.
	Acquires map[string]Site
}

// maxSites bounds how many distinct blocking sites one function's closure
// retains — enough for any witness chain, bounded against pathological
// fan-out.
const maxSites = 64

// Resolve expands one event's call targets: a KCall to its single summary
// (if known), a KICall to every CHA candidate except `from` itself and any
// candidate owned by the call's SelfType — a method delegating through an
// interface to a field of its own type is wrapping a DIFFERENT instance
// (whose locks are different objects even though they share a class), so
// those candidates only manufacture false re-entrancy. Direct recursion
// still resolves through KCall.
func (g *Graph) Resolve(e Event, from string) []string {
	switch e.Kind {
	case KCall:
		if _, ok := g.Funcs[e.Class]; ok {
			return []string{e.Class}
		}
	case KICall:
		var out []string
		for _, key := range g.Methods[e.Class] {
			if key == from {
				continue
			}
			sum := g.Funcs[key]
			if sum == nil || sum.OwnerType == "" {
				continue
			}
			if e.SelfType != "" && sum.OwnerType == e.SelfType {
				continue
			}
			ms := g.TypeMethods[sum.OwnerType]
			ok := true
			for _, need := range e.IfaceMethods {
				if !ms[need] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, key)
			}
		}
		sort.Strings(out)
		return out
	}
	return nil
}

// LeadReleases lists the lock classes key releases before any acquire of
// the same class in its own (direct, non-deferred) events: the ownership
// hand-off shape, where a function is entered with a mutex held and
// returns with it released (wal's flushAsLeader, replica's
// finishResetLocked). A caller's held-scan clears these classes after the
// call — the callee gave the lock up on the caller's behalf.
func (g *Graph) LeadReleases(key string) []string {
	sum := g.Funcs[key]
	if sum == nil {
		return nil
	}
	acquired := make(map[string]bool)
	var out []string
	for _, e := range sum.Events {
		switch e.Kind {
		case KAcquire:
			acquired[e.Class] = true
		case KRelease:
			if !e.Deferred && !acquired[e.Class] {
				out = append(out, e.Class)
				acquired[e.Class] = true // report each class once
			}
		}
	}
	return out
}

// ReachOf returns fn's effect closure, computing the whole graph's
// fixpoint on first use. The fixpoint is context-insensitive (one summary
// per function regardless of call site) and monotone, so iteration to a
// fixed point terminates; recursion contributes whatever its first
// iteration exposes.
func (g *Graph) ReachOf(key string) *Reach {
	if g.reach == nil {
		g.computeReach()
	}
	return g.reach[key]
}

func (g *Graph) computeReach() {
	g.reach = make(map[string]*Reach, len(g.Funcs))
	keys := make([]string, 0, len(g.Funcs))
	for k := range g.Funcs {
		keys = append(keys, k)
		g.reach[k] = &Reach{Blocks: map[string]Site{}, Acquires: map[string]Site{}}
	}
	sort.Strings(keys)
	changed := true
	for rounds := 0; changed && rounds < 64; rounds++ {
		changed = false
		for _, k := range keys {
			if g.update(k) {
				changed = true
			}
		}
	}
}

// update recomputes one function's Reach from its events and its callees'
// current Reaches, reporting whether anything grew.
func (g *Graph) update(key string) bool {
	sum := g.Funcs[key]
	r := g.reach[key]
	changed := false
	addBlock := func(s Site) {
		id := s.Detail + "@" + fmt.Sprint(s.Pos)
		if _, ok := r.Blocks[id]; !ok && len(r.Blocks) < maxSites {
			r.Blocks[id] = s
			changed = true
		}
	}
	addAcq := func(class string, s Site) {
		if _, ok := r.Acquires[class]; !ok {
			r.Acquires[class] = s
			changed = true
		}
	}
	// Lock classes this function releases before (re-)acquiring: the
	// ownership hand-off shape. The later acquire re-takes a lock the
	// function gave up, so it is not exported as a new acquisition a caller
	// could deadlock against.
	released := make(map[string]bool)
	for _, e := range sum.Events {
		if e.Deferred {
			continue
		}
		switch e.Kind {
		case KBlock:
			addBlock(Site{Detail: e.Detail, Pos: e.Pos})
		case KRelease:
			released[e.Class] = true
		case KAcquire:
			if !released[e.Class] {
				addAcq(e.Class, Site{Detail: e.Detail, Pos: e.Pos})
			}
		case KCall, KICall:
			for _, callee := range g.Resolve(e, sum.Key) {
				cr := g.reach[callee]
				if cr == nil {
					continue
				}
				for _, s := range cr.Blocks {
					addBlock(Site{Detail: s.Detail, Pos: s.Pos, Via: callee})
				}
				for class, s := range cr.Acquires {
					addAcq(class, Site{Detail: s.Detail, Pos: s.Pos, Via: callee})
				}
			}
		}
	}
	return changed
}

// Chain renders a witness call chain from a function to a reached site,
// following Via links: "f → g → h".
func (g *Graph) Chain(from string, s Site) string {
	parts := []string{g.displayName(from)}
	cur := s
	for cur.Via != "" && len(parts) < 8 {
		parts = append(parts, g.displayName(cur.Via))
		next, ok := g.Funcs[cur.Via]
		if !ok {
			break
		}
		r := g.reach[next.Key]
		if r == nil {
			break
		}
		id := cur.Detail + "@" + fmt.Sprint(cur.Pos)
		nxt, ok := r.Blocks[id]
		if !ok {
			// May be an acquire chain.
			found := false
			for _, a := range r.Acquires {
				if a.Pos == cur.Pos {
					nxt, found = a, true
					break
				}
			}
			if !found {
				break
			}
		}
		if nxt.Via == "" || nxt.Via == cur.Via {
			break
		}
		cur = nxt
	}
	return strings.Join(parts, " → ")
}

func (g *Graph) displayName(key string) string {
	if sum, ok := g.Funcs[key]; ok && sum.Name != "" {
		return sum.Name
	}
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// declName renders a FuncDecl's display name.
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return "(" + id.Name + ")." + fd.Name.Name
	}
	if ix, ok := t.(*ast.IndexExpr); ok {
		if id, ok := ix.X.(*ast.Ident); ok {
			return "(" + id.Name + ")." + fd.Name.Name
		}
	}
	return fd.Name.Name
}
