// Package ackorder enforces the durability-before-acknowledgement order on
// guardian handler paths: a reply that tells the client "done" must be
// dominated by the forced write that makes the mutation durable.
//
// This is the paper's §2.2 stability obligation made mechanical. Liskov's
// guardians promise that once a reply escapes the guardian, a crash-and-
// recover cannot unhappen the acknowledged effect; the repo's incident
// history (a replica primary's unshipped batch, its deposition window,
// the PR 8 cut-before-install reply) is three variations of the same
// violation — an ack racing ahead of the Sync.
//
// The pass is path-insensitive BY DESIGN: it scans each function's
// summarized events in source order and composes callee facts over the
// call graph, so an error arm that skips the Sync and a happy path that
// replies early look the same — both put a reply between an append and
// the forced write that covers it. Precision comes from the event model,
// not a CFG: AppendSync counts as sync-only (the atomic log-then-ack
// primitive leaves nothing pending), and only sends whose destination
// derives from a message's ReplyTo (or amo.SendReply) count as replies,
// so internal protocol traffic does not trip it.
//
// Two directions:
//
//   - reply-before-sync: a reply fires, directly or through a callee,
//     while an append is still volatile.
//   - sync-skipped: a replying handler path ends with an append that no
//     reachable Sync ever forces — the arm acked and left the mutation
//     volatile forever.
//
// Run only records each package into the shared call graph; the Finish
// direction composes across packages and reports.
package ackorder

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzer is the ackorder pass.
var Analyzer = &analysis.Analyzer{
	Name:   "ackorder",
	Doc:    "require guardian replies to be dominated by the Sync that makes the acknowledged mutation durable",
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

func analyze(g *callgraph.Graph) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	seen := make(map[string]bool)
	report := func(key string, d analysis.Diagnostic) {
		if !seen[key] {
			seen[key] = true
			diags = append(diags, d)
		}
	}

	keys := make([]string, 0, len(g.Funcs))
	for k := range g.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	for _, key := range keys {
		sum := g.Funcs[key]
		var (
			pending  = false
			pendSite callgraph.Site
			hasReply = false
		)
		for _, e := range sum.Events {
			switch e.Kind {
			case callgraph.KAppend:
				pending = true
				pendSite = callgraph.Site{Detail: e.Detail, Pos: e.Pos}
			case callgraph.KSync:
				pending = false
			case callgraph.KReply:
				hasReply = true
				if pending {
					report(fmt.Sprintf("reply@%d", e.Pos), analysis.Diagnostic{
						Pos:     e.Pos,
						Message: fmt.Sprintf("reply (%s) sent before the pending %s is forced durable (in %s)", e.Detail, pendSite.Detail, sum.Name),
					})
				}
			case callgraph.KCall, callgraph.KICall:
				anySync, anyEndsPending := false, false
				for _, callee := range g.Resolve(e, key) {
					cr := g.ReachOf(callee)
					if cr == nil {
						continue
					}
					if cr.HasReply {
						hasReply = true
					}
					if pending && cr.ReplyBeforeSync {
						s := cr.ReplyBeforeSyncSite
						report(fmt.Sprintf("reply@%d", s.Pos), analysis.Diagnostic{
							Pos:     s.Pos,
							Message: fmt.Sprintf("reply (%s) sent before the pending %s is forced durable (path %s → %s)", s.Detail, pendSite.Detail, sum.Name, g.Chain(callee, s)),
						})
					}
					if cr.HasSync {
						anySync = true
					}
					if cr.EndsPending {
						anyEndsPending = true
						pendSite = callgraph.Site{Detail: cr.EndsPendingSite.Detail, Pos: cr.EndsPendingSite.Pos}
					}
				}
				// A callee that syncs covers the caller's earlier appends;
				// any callee that leaves its own append dangling re-opens
				// the window.
				if anySync {
					pending = false
				}
				if anyEndsPending {
					pending = true
				}
			}
		}
		if pending && hasReply {
			report(fmt.Sprintf("dangling@%d", pendSite.Pos), analysis.Diagnostic{
				Pos:     pendSite.Pos,
				Message: fmt.Sprintf("%s on a replying handler path is never forced durable (sync-skipped arm in %s)", pendSite.Detail, sum.Name),
			})
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Message < diags[j].Message
	})
	return diags
}
