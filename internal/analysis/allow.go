package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Allow directives.
//
// A finding is intentionally suppressed by writing, on the flagged line or
// the line immediately above it:
//
//	//lint:allow <pass> <reason>
//
// The reason is mandatory — the paper's invariants are load-bearing, so an
// exemption must say why it is safe (e.g. "sealed capability, body is
// opaque bytes"). An allow directive with no reason is itself reported by
// Run, and a directive that suppresses nothing is reported as stale, so
// the suppression inventory can't rot silently.
const allowPrefix = "//lint:allow "

// Allow is one parsed directive.
type Allow struct {
	// Pass names the analyzer being waived.
	Pass string
	// Reason is the justification text (may be empty; Run reports that).
	Reason string
	// Pos is the directive's own position.
	Pos token.Pos
	// Line is the source line the directive occupies.
	Line int
	// Used is set by Run when the directive suppresses a finding.
	Used bool
}

// CollectAllows parses every //lint:allow directive in the files.
func CollectAllows(fset *token.FileSet, files []*ast.File) []*Allow {
	var out []*Allow
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				pass, reason, _ := strings.Cut(rest, " ")
				out = append(out, &Allow{
					Pass:   pass,
					Reason: strings.TrimSpace(reason),
					Pos:    c.Pos(),
					Line:   fset.Position(c.Pos()).Line,
				})
			}
		}
	}
	return out
}

// Suppresses reports whether directive a waives a finding from pass at
// position pos: same file, same pass, and the directive sits on the
// finding's line or the line above it.
func (a *Allow) Suppresses(fset *token.FileSet, pass string, pos token.Pos) bool {
	if a.Pass != pass {
		return false
	}
	p := fset.Position(pos)
	ap := fset.Position(a.Pos)
	if p.Filename != ap.Filename {
		return false
	}
	return a.Line == p.Line || a.Line == p.Line-1
}
