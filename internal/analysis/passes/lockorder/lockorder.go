// Package lockorder reports blocking operations reached while a mutex is
// held, re-entrant acquisitions, and lock-order cycles, composed over the
// whole-program call graph.
//
// The paper's guardians serialize through message queues and hold no locks
// across waits; the Go reproduction reintroduces mutexes for intra-guardian
// state, and with them the two deadlock shapes that have actually bitten
// this repo: a forced durable write issued while the runtime mutex was
// held (the PR 7 term-log persist re-entry) and a receive path parked
// inside a critical section (the PR 3 lost-wakeup class). Both reduce to
// the same query — "can anything that parks the goroutine run while a
// lock is held?" — which a per-function scan composed over callgraph
// summaries answers across package boundaries.
//
// Three directions:
//
//   - blocking-while-held: a KBlock event (guardian Receive/Pause, amo
//     Call, sendprim call, forced durable write, channel op with no
//     default, WaitGroup wait) fires, directly or through calls, inside a
//     held region. Reported at the blocking operation, so one
//     //lint:allow covers every caller of an accepted pattern.
//   - re-entrant acquisition: a held lock class is acquired again
//     (sync.Mutex self-deadlocks; for RWMutex the read/write upgrade is
//     just as fatal).
//   - lock-order cycle: the global acquired-while-holding edge set
//     contains a cycle, so two goroutines taking the classes in opposite
//     orders can deadlock even though each path alone looks fine.
//
// Held regions follow source order with three refinements that remove the
// false-positive shapes whole-repo triage actually produced:
//
//   - exit-path releases: an unlock immediately followed by return/break/
//     continue/panic is an early-out and does not end the fall-through
//     held region — unless it sits in the same statement list as its
//     acquire, where the terminator leaves the pair's own block and there
//     is no locked fall-through.
//   - lock hand-off: a direct callee that releases a class before
//     acquiring it (wal's flushAsLeader, entered locked and returning
//     unlocked) ends the caller's held region at the call.
//   - self-wrapping dispatch: a composed re-entrancy reached through
//     interface dispatch back into the caller's own type is dropped —
//     per-type lock classes cannot distinguish instances, and a type
//     wrapped below itself (Wrapper inside replica.Store inside Wrapper)
//     holds a different lock object.
//
// Run only records each package into the shared call graph; the Finish
// direction composes across packages and reports.
package lockorder

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name:   "lockorder",
	Doc:    "report blocking operations under held mutexes, re-entrant acquisitions, and lock-order cycles",
	Run:    run,
	Finish: finish,
}

func run(pass *analysis.Pass) error {
	callgraph.Of(pass)
	return nil
}

// finish analyzes the whole-program graph accumulated by every package's
// run.
func finish(prog *analysis.Program) []analysis.Diagnostic {
	return analyze(callgraph.From(prog))
}

// edge records one acquired-while-holding observation: to was acquired
// while from was held, witnessed at site (reached from function fn).
type edge struct {
	site callgraph.Site
	fn   string
}

func analyze(g *callgraph.Graph) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	seen := make(map[string]bool)
	report := func(key string, d analysis.Diagnostic) {
		if !seen[key] {
			seen[key] = true
			diags = append(diags, d)
		}
	}

	edges := make(map[string]map[string]edge)
	addEdge := func(from, to, fn string, s callgraph.Site) {
		m := edges[from]
		if m == nil {
			m = make(map[string]edge)
			edges[from] = m
		}
		if _, ok := m[to]; !ok {
			m[to] = edge{site: s, fn: fn}
		}
	}

	keys := make([]string, 0, len(g.Funcs))
	for k := range g.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	for _, key := range keys {
		sum := g.Funcs[key]
		held := make(map[string]bool)
		// suspended[class] holds the End of a terminating statement that
		// follows an exit-path unlock: events inside it (a call in the
		// return expression) run after the release, events past it are the
		// fall-through that re-enters the held region.
		suspended := make(map[string]token.Pos)
		// acqBlock[class] remembers the statement list the live acquire sits
		// in: an exit-path release in the SAME list is a straight-line pair
		// (the terminator leaves the block both live in), not an early-out,
		// so it ends the held region for good.
		acqBlock := make(map[string]token.Pos)
		var heldOrder []string // deterministic iteration
		heldAt := func(class string, pos token.Pos) bool {
			if !held[class] {
				return false
			}
			if end, ok := suspended[class]; ok && pos < end {
				return false
			}
			return true
		}
		for _, e := range sum.Events {
			switch e.Kind {
			case callgraph.KAcquire:
				for _, h := range heldOrder {
					if !heldAt(h, e.Pos) {
						continue
					}
					addEdge(h, e.Class, key, callgraph.Site{Detail: e.Detail, Pos: e.Pos})
					if h == e.Class {
						report(fmt.Sprintf("reent:%s@%d", e.Class, e.Pos), analysis.Diagnostic{
							Pos:     e.Pos,
							Message: fmt.Sprintf("%s acquired again while already held (in %s)", e.Class, g.Funcs[key].Name),
						})
					}
				}
				if !held[e.Class] {
					held[e.Class] = true
					heldOrder = append(heldOrder, e.Class)
				}
				acqBlock[e.Class] = e.Block
				delete(suspended, e.Class)
			case callgraph.KRelease:
				if e.Deferred {
					continue // holds to function end
				}
				if e.Exits && (e.Block == 0 || e.Block != acqBlock[e.Class]) {
					// Early-out release in a block nested below its acquire:
					// unlocked inside the terminator that follows, still
					// held on the fall-through. (A same-block pair has no
					// locked fall-through — the terminator leaves the block
					// the pair lives in — and releases for good.)
					suspended[e.Class] = e.TermEnd
					continue
				}
				held[e.Class] = false
			case callgraph.KBlock:
				for _, h := range heldOrder {
					if !heldAt(h, e.Pos) {
						continue
					}
					report(fmt.Sprintf("block:%s@%d", h, e.Pos), analysis.Diagnostic{
						Pos:     e.Pos,
						Message: fmt.Sprintf("%s while %s is held (in %s)", e.Detail, h, sum.Name),
					})
				}
			case callgraph.KCall, callgraph.KICall:
				callees := g.Resolve(e, key)
				if anyHeldAt(heldOrder, heldAt, e.Pos) {
					for _, callee := range callees {
						r := g.ReachOf(callee)
						if r == nil {
							continue
						}
						// Classes the callee releases on the caller's behalf
						// (lock hand-off): its own events run with them
						// unlocked, so they don't constrain its blocks.
						lead := make(map[string]bool)
						for _, c := range g.LeadReleases(callee) {
							lead[c] = true
						}
						blocks := sortedSites(r.Blocks)
						for _, s := range blocks {
							for _, h := range heldOrder {
								if !heldAt(h, e.Pos) || lead[h] {
									continue
								}
								report(fmt.Sprintf("block:%s@%d", h, s.Pos), analysis.Diagnostic{
									Pos:     s.Pos,
									Message: fmt.Sprintf("%s while %s is held (path %s → %s)", s.Detail, h, sum.Name, g.Chain(callee, s)),
								})
							}
						}
						acqs := make([]string, 0, len(r.Acquires))
						for class := range r.Acquires {
							acqs = append(acqs, class)
						}
						sort.Strings(acqs)
						for _, class := range acqs {
							s := r.Acquires[class]
							for _, h := range heldOrder {
								if !heldAt(h, e.Pos) || lead[h] {
									continue
								}
								addEdge(h, class, key, s)
								if h != class {
									continue
								}
								if e.Kind == callgraph.KICall &&
									(sum.OwnerType != "" && strings.HasPrefix(class, sum.OwnerType+".") ||
										e.SelfType != "" && strings.HasPrefix(class, e.SelfType+".")) {
									// Interface dispatch whose CHA closure
									// winds back into the caller's own type
									// (or the type whose field it dispatches
									// through): under per-type lock classes
									// that is a different instance wrapped
									// somewhere below, not the held lock —
									// the self-wrapping false-positive shape.
									continue
								}
								report(fmt.Sprintf("reent:%s@%d", class, s.Pos), analysis.Diagnostic{
									Pos:     s.Pos,
									Message: fmt.Sprintf("%s acquired again while already held (path %s → %s)", class, sum.Name, g.Chain(callee, s)),
								})
							}
						}
					}
				}
				// A direct callee that releases a class before acquiring it
				// was handed the lock and returned without it: the caller's
				// held region for that class ends at the call.
				if e.Kind == callgraph.KCall && len(callees) == 1 {
					for _, class := range g.LeadReleases(callees[0]) {
						if held[class] {
							held[class] = false
							delete(suspended, class)
						}
					}
				}
			}
		}
	}

	diags = append(diags, cycles(edges, seen)...)
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Message < diags[j].Message
	})
	return diags
}

func anyHeldAt(order []string, heldAt func(string, token.Pos) bool, pos token.Pos) bool {
	for _, h := range order {
		if heldAt(h, pos) {
			return true
		}
	}
	return false
}

func sortedSites(m map[string]callgraph.Site) []callgraph.Site {
	out := make([]callgraph.Site, 0, len(m))
	for _, s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// cycles reports each lock-order cycle of length ≥ 2 once (self-edges are
// the re-entrant direction, reported during the scan).
func cycles(edges map[string]map[string]edge, seen map[string]bool) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	froms := make([]string, 0, len(edges))
	for f := range edges {
		froms = append(froms, f)
	}
	sort.Strings(froms)
	for _, from := range froms {
		tos := make([]string, 0, len(edges[from]))
		for t := range edges[from] {
			tos = append(tos, t)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if to == from {
				continue
			}
			path := pathBetween(edges, to, from)
			if path == nil {
				continue
			}
			// Cycle: from → to → … → from (path already ends at from).
			// Canonical key is the sorted class set so each cycle reports
			// once, at the edge observed from the smallest head.
			classes := append([]string{from}, path...)
			canon := append([]string(nil), classes[:len(classes)-1]...)
			sort.Strings(canon)
			key := "cycle:" + strings.Join(canon, "|")
			if seen[key] {
				continue
			}
			seen[key] = true
			e := edges[from][to]
			diags = append(diags, analysis.Diagnostic{
				Pos:     e.site.Pos,
				Message: fmt.Sprintf("lock-order cycle: %s (this acquisition closes the cycle)", strings.Join(classes, " → ")),
			})
		}
	}
	return diags
}

// pathBetween returns the node sequence from→…→to (inclusive of both) if
// one exists, nil otherwise. Deterministic BFS over sorted neighbors.
func pathBetween(edges map[string]map[string]edge, from, to string) []string {
	parent := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == to {
			var path []string
			for n := to; n != ""; n = parent[n] {
				path = append([]string{n}, path...)
			}
			return path
		}
		next := make([]string, 0, len(edges[cur]))
		for n := range edges[cur] {
			next = append(next, n)
		}
		sort.Strings(next)
		for _, n := range next {
			if _, ok := parent[n]; !ok {
				parent[n] = cur
				queue = append(queue, n)
			}
		}
	}
	return nil
}
