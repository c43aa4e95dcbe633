// Command guardianlint checks the repository against the linguistic
// invariants of Liskov's guardian model (SOSP 1979) that Go will not
// enforce for us: no guardian's storage held by another's processes
// (confinement; a process driven by two goroutines panics at run time),
// and no blocking operations or ordering cycles under held mutexes
// (lockorder). Transmissibility and external-rep pairs are checked at run
// time, by xrep.Encode on every send and the registry on every decode, and
// a reply sent ahead of its Sync by the send-unsynced crash window
// (DESIGN §10, §11).
//
//	guardianlint [-allowlist] [packages]
//
// analyzes the packages (default ./...) in one process, including the
// whole-program direction (lockorder's cross-package composition)
// and a staleness report for //lint:allow
// directives, and exits 1 on findings. -allowlist prints every
// //lint:allow directive with its justification and whether it is active,
// instead of findings.
//
// Findings are suppressed by a `//lint:allow <pass> <reason>` comment on
// the flagged line or the line above; the reason is mandatory and unused
// directives are themselves reported.
package main

import (
	"fmt"
	"go/token"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
	"repro/internal/analysis/passes/confinement"
	"repro/internal/analysis/passes/lockorder"
)

var analyzers = []*analysis.Analyzer{
	confinement.Analyzer,
	lockorder.Analyzer,
}

func main() {
	allowlist := false
	var patterns []string
	for _, a := range os.Args[1:] {
		switch a {
		case "-h", "-help", "--help":
			usage()
			return
		case "-allowlist", "--allowlist":
			allowlist = true
		default:
			if strings.HasPrefix(a, "-") {
				fmt.Fprintf(os.Stderr, "guardianlint: unknown flag %s\n", a)
				os.Exit(1)
			}
			patterns = append(patterns, a)
		}
	}
	os.Exit(run(patterns, allowlist))
}

func usage() {
	fmt.Println("usage: guardianlint [-allowlist] [packages]")
	fmt.Println()
	fmt.Println("Analyzes the given Go packages (default ./...) against the guardian")
	fmt.Println("model's invariants.")
	fmt.Println()
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

// run loads patterns, analyzes every target package in one process and
// prints the findings, or the allow inventory with -allowlist.
func run(patterns []string, allowlist bool) int {
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
	var units []*load.Unit
	for _, p := range load.Targets(pkgs, order) {
		u, err := load.CheckListed(fset, p, exports)
		if err != nil {
			fmt.Fprintf(os.Stderr, "guardianlint: %v\n", err)
			return 1
		}
		units = append(units, u)
	}
	findings, allows := analysis.Run(units, analyzers)

	if allowlist {
		for _, al := range allows {
			state := "active"
			if !al.Used {
				state = "stale"
			}
			reason := al.Reason
			if reason == "" {
				reason = "(no justification)"
			}
			fmt.Printf("%s: allow %s [%s] — %s\n", fset.Position(al.Pos), al.Pass, state, reason)
		}
		fmt.Printf("%d suppression(s)\n", len(allows))
		return 0
	}
	for _, f := range findings {
		fmt.Printf("%s: %s [%s]\n", fset.Position(f.Pos), f.Message, f.Pass)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
