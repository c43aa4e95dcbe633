// Command guardianlint checks the repository against the linguistic
// invariants of Liskov's guardian model (SOSP 1979) that Go will not
// enforce for us: no object addresses in messages (transmissible), no
// storage shared across guardians (confinement), complete and consistent
// encode/decode pairs for every external rep (xreppair), receive
// statements that own a failure or timeout arm (recvhygiene), no blocking
// operations or ordering cycles under held mutexes (lockorder), replies
// dominated by the Sync that makes the acknowledged mutation durable
// (ackorder), and no internal routing vocabulary escaping to clients
// (replyleak).
//
//	guardianlint [-json] [-allowlist] [packages]
//
// analyzes the packages (default ./...) in one process, including the
// whole-program directions (xreppair's registry check, lockorder/ackorder's
// cross-package composition) and a staleness report for //lint:allow
// directives, and exits 1 on findings.
//
// -json replaces the human output with machine-readable diagnostics
// (file/line/col/pass/message/suppressed), suppressed findings included so
// CI can annotate what the allow inventory is holding down. -allowlist
// prints every //lint:allow directive with its justification and whether
// it is active, instead of findings.
//
// Findings are suppressed by a `//lint:allow <pass> <reason>` comment on
// the flagged line or the line above; the reason is mandatory and unused
// directives are themselves reported.
package main

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
	"repro/internal/analysis/passes/ackorder"
	"repro/internal/analysis/passes/confinement"
	"repro/internal/analysis/passes/lockorder"
	"repro/internal/analysis/passes/recvhygiene"
	"repro/internal/analysis/passes/replyleak"
	"repro/internal/analysis/passes/transmissible"
	"repro/internal/analysis/passes/xreppair"
	"repro/internal/analysis/unit"
)

var analyzers = []*analysis.Analyzer{
	transmissible.Analyzer,
	confinement.Analyzer,
	xreppair.Analyzer,
	recvhygiene.Analyzer,
	lockorder.Analyzer,
	ackorder.Analyzer,
	replyleak.Analyzer,
}

func main() {
	args := os.Args[1:]

	var opts options
	var patterns []string
	for _, a := range args {
		switch a {
		case "-h", "-help", "--help":
			usage()
			return
		case "-json", "--json":
			opts.jsonOut = true
		case "-allowlist", "--allowlist":
			opts.allowlist = true
		default:
			if strings.HasPrefix(a, "-") {
				fmt.Fprintf(os.Stderr, "guardianlint: unknown flag %s\n", a)
				os.Exit(1)
			}
			patterns = append(patterns, a)
		}
	}
	os.Exit(run(patterns, opts))
}

// options are the output switches.
type options struct {
	jsonOut   bool
	allowlist bool
}

func usage() {
	fmt.Println("usage: guardianlint [-json] [-allowlist] [packages]")
	fmt.Println()
	fmt.Println("Analyzes the given Go packages (default ./...) against the guardian")
	fmt.Println("model's invariants.")
	fmt.Println()
	fmt.Println("  -json       machine-readable diagnostics, suppressed findings included")
	fmt.Println("  -allowlist  report every //lint:allow directive with its justification")
	fmt.Println()
	fmt.Println("Passes:")
	for _, a := range analyzers {
		fmt.Printf("  %-14s %s\n", a.Name, a.Doc)
	}
	fmt.Println()
	fmt.Println("Suppress a finding with `//lint:allow <pass> <reason>` on the flagged")
	fmt.Println("line or the line above it.")
}

// jsonFinding is one -json record.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Pass       string `json:"pass"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// run analyzes patterns in one process: every target package through
// every pass, then each pass's whole-program Finish direction, then the
// allow staleness report.
func run(patterns []string, opts options) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, order, err := load.List(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "guardianlint: %v\n", err)
		return 1
	}
	for _, id := range order {
		if p := pkgs[id]; p.Error != nil && !p.DepOnly {
			fmt.Fprintf(os.Stderr, "guardianlint: %s: %s\n", id, p.Error.Err)
			return 1
		}
	}

	// One file set across all units so whole-program positions resolve; one
	// export map since go list already built every dependency.
	fset := token.NewFileSet()
	exports := load.PackageFiles(pkgs)
	prog := analysis.NewProgram()
	var findings, suppressed []unit.Finding
	var allows []*analysis.Allow
	for _, p := range load.Targets(pkgs, order) {
		u, err := load.CheckListed(fset, p, exports)
		if err != nil {
			fmt.Fprintf(os.Stderr, "guardianlint: %v\n", err)
			return 1
		}
		ua := analysis.CollectAllows(fset, u.Files)
		out, sup := unit.Analyze(u, analyzers, prog, ua)
		findings = append(findings, out...)
		suppressed = append(suppressed, sup...)
		allows = append(allows, ua...)
	}

	// Whole-program directions, filtered through the full allow inventory.
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		for _, d := range a.Finish(prog) {
			f := unit.Finding{Diagnostic: d, Pass: a.Name}
			wasAllowed := false
			for _, al := range allows {
				if al.Suppresses(fset, a.Name, d.Pos) {
					al.Used = true
					wasAllowed = true
					break
				}
			}
			if wasAllowed {
				suppressed = append(suppressed, f)
			} else {
				findings = append(findings, f)
			}
		}
	}

	if opts.allowlist {
		return reportAllows(fset, allows, opts)
	}

	// Allow hygiene: a used directive must say why; an unused one is stale.
	findings = append(findings, unit.ReasonlessAllows(allows)...)
	for _, al := range allows {
		if !al.Used {
			findings = append(findings, unit.Finding{
				Diagnostic: analysis.Diagnostic{Pos: al.Pos,
					Message: fmt.Sprintf("//lint:allow %s suppresses nothing — remove the stale directive", al.Pass)},
				Pass: "lint",
			})
		}
	}

	byPos := func(fs []unit.Finding) func(i, j int) bool {
		return func(i, j int) bool {
			pi, pj := fset.Position(fs[i].Pos), fset.Position(fs[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			return pi.Column < pj.Column
		}
	}
	sort.SliceStable(findings, byPos(findings))
	sort.SliceStable(suppressed, byPos(suppressed))

	if opts.jsonOut {
		recs := make([]jsonFinding, 0, len(findings)+len(suppressed))
		add := func(fs []unit.Finding, sup bool) {
			for _, f := range fs {
				p := fset.Position(f.Pos)
				recs = append(recs, jsonFinding{
					File: p.Filename, Line: p.Line, Col: p.Column,
					Pass: f.Pass, Message: f.Message, Suppressed: sup,
				})
			}
		}
		add(findings, false)
		add(suppressed, true)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(recs); err != nil {
			fmt.Fprintf(os.Stderr, "guardianlint: %v\n", err)
			return 1
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s: %s [%s]\n", fset.Position(f.Pos), f.Message, f.Pass)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// reportAllows prints the suppression inventory: every directive, its
// justification, and whether anything still hides behind it.
func reportAllows(fset *token.FileSet, allows []*analysis.Allow, opts options) int {
	sort.SliceStable(allows, func(i, j int) bool {
		pi, pj := fset.Position(allows[i].Pos), fset.Position(allows[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
	if opts.jsonOut {
		type rec struct {
			File   string `json:"file"`
			Line   int    `json:"line"`
			Pass   string `json:"pass"`
			Reason string `json:"reason"`
			Active bool   `json:"active"`
		}
		recs := make([]rec, 0, len(allows))
		for _, al := range allows {
			p := fset.Position(al.Pos)
			recs = append(recs, rec{File: p.Filename, Line: p.Line, Pass: al.Pass, Reason: al.Reason, Active: al.Used})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(recs); err != nil {
			fmt.Fprintf(os.Stderr, "guardianlint: %v\n", err)
			return 1
		}
		return 0
	}
	for _, al := range allows {
		p := fset.Position(al.Pos)
		state := "active"
		if !al.Used {
			state = "stale"
		}
		reason := al.Reason
		if reason == "" {
			reason = "(no justification)"
		}
		fmt.Printf("%s:%d: allow %s [%s] — %s\n", p.Filename, p.Line, al.Pass, state, reason)
	}
	fmt.Printf("%d suppression(s)\n", len(allows))
	return 0
}
