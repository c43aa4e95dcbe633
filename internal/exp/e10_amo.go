package exp

import (
	"fmt"
	"time"

	"repro/internal/amo"
	"repro/internal/bank"
	"repro/internal/guardian"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sendprim"
)

// The at-most-once experiment at full size.
const (
	e10Transfers = 500 // across all clients
	e10Clients   = 10  // concurrent, each owning a disjoint account pair
	// e10LossRate and e10DupRate are applied to every packet both ways.
	e10LossRate   = 0.20
	e10DupRate    = 0.20
	e10NetLatency = 300 * time.Microsecond // one-way
	// e10AttemptTimeout bounds each call attempt; e10Retries re-sends follow.
	e10AttemptTimeout = 25 * time.Millisecond
	e10Retries        = 20
)

// RunE10AMO measures what the at-most-once layer buys back from the §3.5
// concession that a retried remote transaction send "may be performed any
// number of times". The same concurrent transfer workload runs twice
// against a bank branch over a lossy, duplicating network: once through
// amo.Caller + amo.Dedup, once through the bare envelope with no filter.
// The layer must yield exactly-once application (executions == logical
// calls, every balance as the replies implied); the bare arm must
// demonstrably over-apply.
func RunE10AMO(scale Scale) (*Result, error) {
	transfers := scale.N(e10Transfers, 40)
	res := &Result{ID: "E10 (extension: at-most-once on the no-wait send)"}
	tab := metrics.NewTable(
		fmt.Sprintf("At-most-once vs bare calls: %d transfers, %.0f%% loss + %.0f%% dup",
			transfers, e10LossRate*100, e10DupRate*100),
		"mode", "ok", "applies", "double-applied", "deviating-accts", "retries", "deduped", "replayed", "backoff")
	res.Tables = append(res.Tables, tab)

	for _, mode := range []string{"amo", "bare"} {
		row, err := runE10Cell(transfers, mode == "bare")
		if err != nil {
			return nil, err
		}
		tab.AddRow(mode, row.ok, row.applies, row.applies-row.ok, row.deviating,
			row.retries, row.deduped, row.replayed, row.backoff.Round(time.Millisecond).String())
		if row.failed > 0 {
			res.Deviatesf("%s arm had %d calls exhaust %d retries", mode, row.failed, e10Retries)
			continue
		}
		if mode == "amo" {
			if row.applies == row.ok && row.deviating == 0 {
				res.Holdsf("at-most-once layer applied %d/%d transfers exactly once (suppressed %d duplicates, replayed %d cached replies)",
					row.applies, row.ok, row.deduped, row.replayed)
			} else {
				res.Deviatesf("amo arm executed %d transfers for %d calls with %d deviating accounts",
					row.applies, row.ok, row.deviating)
			}
		} else {
			if row.applies > row.ok && row.deviating > 0 {
				res.Holdsf("bare calls double-applied %d of %d transfers (%d accounts wrong) — the §3.5 hazard the layer removes",
					row.applies-row.ok, row.ok, row.deviating)
			} else {
				res.Deviatesf("bare arm showed no over-application under %.0f%% duplication", e10DupRate*100)
			}
		}
	}
	return res, nil
}

type e10Row struct {
	ok        int64
	failed    int64
	applies   int64
	deviating int
	retries   int64
	deduped   int64
	replayed  int64
	backoff   time.Duration
}

func runE10Cell(transfers int, raw bool) (e10Row, error) {
	var row e10Row
	w := guardian.NewWorld(guardian.Config{Net: netsim.Config{
		Seed:        10,
		LossRate:    e10LossRate,
		DupRate:     e10DupRate,
		BaseLatency: e10NetLatency,
	}})
	w.MustRegister(bank.BranchDef())
	branchNode := w.MustAddNode("branch")
	var args []any
	if raw {
		args = []any{"raw"}
	}
	created, err := branchNode.Bootstrap(bank.BranchDefName, args...)
	if err != nil {
		return row, err
	}
	nativePort, amoPort := created.Ports[0], created.Ports[1]
	tellers := w.MustAddNode("tellers")
	met := &amo.Metrics{}
	dedup0, replay0 := amo.Default.CallsDeduped.Load(), amo.Default.RepliesReplayed.Load()

	// Each client tracks the balances its acknowledged transfers imply.
	type expectation struct {
		acctA, acctB string
		expA, expB   int64
	}
	expected := make([]expectation, e10Clients)
	f, err := runFleet(w.Clock(), e10Clients, transfers, func(i int) (func(int) error, error) {
		_, proc, err := tellers.NewDriver(fmt.Sprintf("teller-%d", i))
		if err != nil {
			return nil, err
		}
		// Account setup goes over the NATIVE idempotent port (op_id
		// deduplication), so both arms start from identical, exact
		// balances and the amo port carries only the audited transfers.
		callOpts := sendprim.CallOptions{
			Timeout: 2 * e10AttemptTimeout,
			Retries: e10Retries,
			Backoff: 2 * time.Millisecond,
		}
		e := &expected[i]
		e.acctA, e.acctB, err = fundedPair(i, func(cmd string, args ...any) error {
			if cmd == "deposit" {
				args = append(args, fmt.Sprintf("fund-%d", i)) // the native port's op_id
			}
			m, err := sendprim.Call(proc, nativePort, bank.ClientReplyType, callOpts, cmd, args...)
			if err != nil {
				return err
			}
			return fundingOutcome(cmd, m.Command)
		})
		if err != nil {
			return nil, err
		}
		e.expA = seedFunds

		caller, err := amo.NewCaller(proc, amo.CallerOptions{
			Timeout: e10AttemptTimeout,
			Retries: e10Retries,
			Backoff: amo.BackoffPolicy{Base: 2 * time.Millisecond, Jitter: 0.5},
			Metrics: met,
		})
		if err != nil {
			return nil, err
		}
		return func(j int) error {
			amount := int64(1 + j%7)
			rep, err := caller.Call(amoPort, "transfer", e.acctA, e.acctB, amount)
			if err != nil {
				return err
			}
			if rep.Command != bank.OutcomeOK {
				return fmt.Errorf("exp: transfer answered %s", rep.Command)
			}
			e.expA -= amount
			e.expB += amount
			return nil
		}, nil
	})
	if err != nil {
		return row, err
	}
	waitQuiesce(w)
	time.Sleep(20 * time.Millisecond)

	bg, ok := branchNode.GuardianByID(created.GuardianID)
	if !ok {
		return row, fmt.Errorf("exp: branch guardian vanished")
	}
	balances, err := bank.Snapshot(bg)
	if err != nil {
		return row, err
	}
	row.applies, err = bank.Applies(bg)
	if err != nil {
		return row, err
	}
	row.ok, row.failed = f.OK, f.Failed
	for _, e := range expected {
		if balances[e.acctA] != e.expA {
			row.deviating++
		}
		if balances[e.acctB] != e.expB {
			row.deviating++
		}
	}
	row.retries = met.Retries.Load()
	row.deduped = amo.Default.CallsDeduped.Load() - dedup0
	row.replayed = amo.Default.RepliesReplayed.Load() - replay0
	row.backoff = time.Duration(met.RetryBackoffTotal.Load())
	return row, nil
}
