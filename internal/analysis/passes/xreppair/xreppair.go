// Package xreppair enforces the two-sidedness of external representations
// (§3.3): an abstract type crosses the wire only because it has a fixed,
// system-wide external rep with an encode operation on the sending side
// and a decode operation registered at the receiving node. Half a pair is
// a latent runtime failure — an encoder whose output no node can decode,
// or a registered decoder for a type nothing produces.
//
// Per-package checks:
//
//   - a type declaring EncodeX without XTypeName, or vice versa: half an
//     xrep.Transmittable implementation that Go happily compiles and
//     xrep.Encode rejects at runtime;
//   - an XTypeName method whose result is not a compile-time constant —
//     the name is part of the type's fixed system-wide meaning;
//   - Registry.Register with a non-constant type name, or a nil decode
//     function;
//   - encode/decode arity disagreement: when a package both encodes a
//     type (EncodeX returning an xrep.Seq literal) and registers a decode
//     for the same name whose body opens its reader with xrep.ReadRec, the
//     encoded field count and the reader's constant arity must agree.
//
// Whole-program checks (every package of the run is visible): every
// XTypeName value must be registered for decode somewhere, and every
// registered name must have an encoder.
package xreppair

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/guardianapi"
)

// Analyzer is the pass.
var Analyzer = &analysis.Analyzer{
	Name:   "xreppair",
	Doc:    "flag incomplete or inconsistent encode/decode pairs for transmittable types",
	Run:    run,
	Finish: Finish,
}

// Index is the whole-program accumulator: which type names have encoders,
// and which have registered decoders.
type Index struct {
	// Encoders maps XTypeName values to the declaring method positions.
	Encoders map[string][]token.Pos
	// Registered maps Register'd names to the call positions.
	Registered map[string][]token.Pos
}

// indexOf returns the run-wide Index, creating it on first use.
func indexOf(prog *analysis.Program) *Index {
	return prog.Fact("xreppair.index", func() any {
		return &Index{Encoders: map[string][]token.Pos{}, Registered: map[string][]token.Pos{}}
	}).(*Index)
}

func run(pass *analysis.Pass) error {
	if guardianapi.FindPackage(pass.Pkg, guardianapi.Xrep) == nil && pass.Pkg.Path() != guardianapi.Xrep {
		return nil
	}

	// encoders: XTypeName constant value → encode arity (-1 unknown),
	// from this package's method declarations.
	encoderArity := make(map[string]int)
	encoderPos := make(map[string]token.Pos)
	typeNames := make(map[string]string) // XTypeName value → receiver type name

	// Pair half-check over declared types.
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		var hasName, hasEncode bool
		for i := 0; i < named.NumMethods(); i++ {
			switch named.Method(i).Name() {
			case "XTypeName":
				hasName = true
			case "EncodeX":
				hasEncode = true
			}
		}
		if hasName != hasEncode {
			missing, present := "EncodeX", "XTypeName"
			if hasEncode {
				missing, present = "XTypeName", "EncodeX"
			}
			pass.Reportf(tn.Pos(),
				"type %s declares %s but not %s — half an xrep.Transmittable implementation never crosses the wire",
				name, present, missing)
		}
	}

	// Walk method declarations: constant-ness of XTypeName, encode
	// arities from EncodeX bodies.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			switch fd.Name.Name {
			case "XTypeName":
				val, ok := soleConstantReturn(pass, fd)
				if !ok {
					pass.Reportf(fd.Name.Pos(),
						"XTypeName must return a single compile-time constant — the name is part of the type's fixed system-wide meaning")
					continue
				}
				typeNames[val] = recvTypeName(fd)
				if _, seen := encoderPos[val]; !seen {
					encoderPos[val] = fd.Name.Pos()
				}
				idx := indexOf(pass.Program)
				idx.Encoders[val] = append(idx.Encoders[val], fd.Name.Pos())
			case "EncodeX":
				arity := encodeArity(pass, fd)
				name := xTypeNameOfReceiver(pass, fd)
				if name == "" {
					continue
				}
				if prev, seen := encoderArity[name]; seen && prev != arity {
					encoderArity[name] = -1 // representations disagree? runtime Seq sizes differ per impl
				} else {
					encoderArity[name] = arity
				}
			}
		}
	}

	// Register call sites.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, recv, name := guardianapi.Callee(pass.TypesInfo, call)
			if pkg != guardianapi.Xrep || recv != "Registry" || name != "Register" || len(call.Args) != 2 {
				return true
			}
			tv := pass.TypesInfo.Types[call.Args[0]]
			if tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(call.Args[0].Pos(),
					"Register type name must be a compile-time constant — names are fixed system-wide (§3.3)")
				return true
			}
			typeName := constant.StringVal(tv.Value)
			if isNilExpr(pass, call.Args[1]) {
				pass.Reportf(call.Args[1].Pos(), "Register(%q, nil) installs no decode operation", typeName)
				return true
			}
			idx := indexOf(pass.Program)
			idx.Registered[typeName] = append(idx.Registered[typeName], call.Pos())
			// Arity agreement, when both halves are visible here.
			encA, okEnc := encoderArity[typeName]
			decA := decodeArity(pass, call.Args[1])
			if okEnc && encA > 0 && decA > 0 && encA != decA {
				pass.Reportf(call.Pos(),
					"decode for %q expects %d external-rep fields but %s.EncodeX produces %d — the external rep is part of the type's fixed meaning",
					typeName, decA, typeNames[typeName], encA)
			}
			return true
		})
	}
	return nil
}

// Finish reports the whole-program directions after every package of a
// run has been indexed.
func Finish(prog *analysis.Program) []analysis.Diagnostic {
	idx := indexOf(prog)
	var out []analysis.Diagnostic
	names := make([]string, 0, len(idx.Encoders))
	for n := range idx.Encoders {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if len(idx.Registered[n]) == 0 {
			for _, pos := range idx.Encoders[n] {
				out = append(out, analysis.Diagnostic{Pos: pos,
					Message: "transmittable type \"" + n + "\" has an encoder but no node registers a decode for it — its messages are undecodable everywhere"})
			}
		}
	}
	names = names[:0]
	for n := range idx.Registered {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if len(idx.Encoders[n]) == 0 {
			for _, pos := range idx.Registered[n] {
				out = append(out, analysis.Diagnostic{Pos: pos,
					Message: "decode registered for \"" + n + "\" but no type's XTypeName produces it — nothing ever encodes this external rep"})
			}
		}
	}
	return out
}

// soleConstantReturn reports the constant value of fd's single-result
// returns; ok is false when any return is non-constant or values differ.
func soleConstantReturn(pass *analysis.Pass, fd *ast.FuncDecl) (string, bool) {
	val := ""
	ok := true
	seen := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet || len(ret.Results) != 1 {
			return true
		}
		tv := pass.TypesInfo.Types[ret.Results[0]]
		if tv.Value == nil || tv.Value.Kind() != constant.String {
			ok = false
			return true
		}
		v := constant.StringVal(tv.Value)
		if seen && v != val {
			ok = false
		}
		val, seen = v, true
		return true
	})
	return val, ok && seen
}

// recvTypeName names fd's receiver type.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// xTypeNameOfReceiver finds the XTypeName constant for fd's receiver type
// by looking the method up on the receiver's named type.
func xTypeNameOfReceiver(pass *analysis.Pass, fd *ast.FuncDecl) string {
	rn := recvTypeName(fd)
	if rn == "" {
		return ""
	}
	obj, ok := pass.Pkg.Scope().Lookup(rn).(*types.TypeName)
	if !ok {
		return ""
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return ""
	}
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		if m.Name() != "XTypeName" {
			continue
		}
		// Find the declaration and extract its constant.
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				if md, ok := decl.(*ast.FuncDecl); ok && md.Body != nil &&
					md.Name.Name == "XTypeName" && recvTypeName(md) == rn {
					if v, ok := soleConstantReturn(pass, md); ok {
						return v
					}
				}
			}
		}
	}
	return ""
}

// encodeArity extracts the field count of the Seq literals fd returns, or
// -1 when it cannot be determined (non-literal returns, disagreeing
// lengths). A non-Seq single value encodes as one field (xrep.Encode
// wraps it).
func encodeArity(pass *analysis.Pass, fd *ast.FuncDecl) int {
	arity := 0
	known := true
	seen := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet || len(ret.Results) != 2 {
			return true
		}
		res := ast.Unparen(ret.Results[0])
		if id, ok := res.(*ast.Ident); ok && id.Name == "nil" {
			return true // error path
		}
		var a int
		if lit, ok := res.(*ast.CompositeLit); ok && isSeqType(pass.TypesInfo.Types[lit].Type) {
			a = len(lit.Elts)
		} else if t := pass.TypesInfo.Types[res].Type; t != nil && !isSeqType(t) {
			a = 1 // single value, wrapped into a one-field Seq by xrep.Encode
		} else {
			known = false
			return true
		}
		if seen && a != arity {
			known = false
		}
		arity, seen = a, true
		return true
	})
	if !known || !seen {
		return -1
	}
	return arity
}

// isSeqType reports whether t is xrep.Seq.
func isSeqType(t types.Type) bool {
	return t != nil && guardianapi.IsNamed(t, guardianapi.Xrep, "Seq")
}

// decodeArity is the field count the registered decode function opens its
// reader for: the constant arity argument of its xrep.ReadRec call. Returns
// -1 when the body is not visible or opens no reader.
func decodeArity(pass *analysis.Pass, fn ast.Expr) int {
	fd := decodeFuncDecl(pass, fn)
	if fd == nil || fd.Body == nil {
		return -1
	}
	arity := -1
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || arity >= 0 || len(call.Args) != 3 {
			return true
		}
		if pkg, _, name := guardianapi.Callee(pass.TypesInfo, call); pkg != guardianapi.Xrep || name != "ReadRec" {
			return true
		}
		if tv := pass.TypesInfo.Types[call.Args[2]]; tv.Value != nil && tv.Value.Kind() == constant.Int {
			if i, exact := constant.Int64Val(tv.Value); exact {
				arity = int(i)
			}
		}
		return true
	})
	return arity
}

// decodeFuncDecl resolves the Register func argument to a same-package
// function declaration (identifier or func literal).
func decodeFuncDecl(pass *analysis.Pass, fn ast.Expr) *ast.FuncDecl {
	switch e := ast.Unparen(fn).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			return nil
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == e.Name &&
					pass.TypesInfo.Defs[fd.Name] == obj {
					return fd
				}
			}
		}
	case *ast.SelectorExpr:
		// Cross-package decode funcs have no visible body here.
		return nil
	}
	return nil
}

// isNilExpr reports whether e is the predeclared nil.
func isNilExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}
