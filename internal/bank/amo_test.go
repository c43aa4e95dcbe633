package bank_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/amo"
	"repro/internal/bank"
	"repro/internal/guardian"
	"repro/internal/netsim"
	"repro/internal/sendprim"
)

// The acceptance workload: 10 concurrent tellers, 50 transfers each,
// through a network losing 20% and duplicating 20% of all packets. Each
// teller owns a disjoint account pair, so the exact final balance of every
// account is computable from the replies the teller received.
const (
	amoClients       = 10
	amoCallsPerTller = 50
	amoSeedFunds     = 1_000_000
)

type amoRun struct {
	ok       int64            // transfers whose reply said ok
	applies  int64            // mutating executions the branch performed
	balances map[string]int64 // actual final account table
	expected map[string]int64 // implied by the replies received
}

// runAMOWorkload drives the workload against a branch with (raw=false) or
// without (raw=true) the at-most-once filter on its amo port.
func runAMOWorkload(t *testing.T, raw bool, met *amo.Metrics) *amoRun {
	t.Helper()
	w := guardian.NewWorld(guardian.Config{Net: netsim.Config{
		Seed:        20260806,
		LossRate:    0.20,
		DupRate:     0.20,
		BaseLatency: 300 * time.Microsecond,
	}})
	w.MustRegister(bank.BranchDef())
	branchNode := w.MustAddNode("branch")
	var created *guardian.Created
	var err error
	if raw {
		created, err = branchNode.Bootstrap(bank.BranchDefName, "raw")
	} else {
		created, err = branchNode.Bootstrap(bank.BranchDefName)
	}
	if err != nil {
		t.Fatal(err)
	}
	nativePort, amoPort := created.Ports[0], created.Ports[1]
	tellers := w.MustAddNode("tellers")

	run := &amoRun{expected: make(map[string]int64)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < amoClients; i++ {
		g, proc, err := tellers.NewDriver(fmt.Sprintf("teller-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, g *guardian.Guardian, proc *guardian.Process) {
			defer wg.Done()
			acctA, acctB := fmt.Sprintf("c%d-a", i), fmt.Sprintf("c%d-b", i)

			// Set up the account pair over the native idempotent port:
			// re-opening reports account_exists and the funding deposit
			// carries an op_id, so blind retries are safe here.
			callOpts := sendprim.CallOptions{
				Timeout: 50 * time.Millisecond,
				Retries: 20,
				Backoff: 2 * time.Millisecond,
			}
			for _, acct := range []string{acctA, acctB} {
				m, err := sendprim.Call(proc, nativePort, bank.ClientReplyType, callOpts, "open", acct)
				if err != nil {
					t.Errorf("teller %d: open %s: %v", i, acct, err)
					return
				}
				if m.Command != bank.OutcomeOK && m.Command != bank.OutcomeExists {
					t.Errorf("teller %d: open %s: %s", i, acct, m.Command)
					return
				}
			}
			m, err := sendprim.Call(proc, nativePort, bank.ClientReplyType, callOpts,
				"deposit", acctA, int64(amoSeedFunds), fmt.Sprintf("fund-%d", i))
			if err != nil || m.Command != bank.OutcomeOK {
				t.Errorf("teller %d: funding: %v %v", i, m, err)
				return
			}

			caller, err := amo.NewCaller(proc, amo.CallerOptions{
				Timeout: 25 * time.Millisecond,
				Retries: 20,
				Backoff: amo.BackoffPolicy{Base: 2 * time.Millisecond, Jitter: 0.5},
				Metrics: met,
			})
			if err != nil {
				t.Errorf("teller %d: caller: %v", i, err)
				return
			}
			expA, expB := int64(amoSeedFunds), int64(0)
			var ok int64
			for j := 0; j < amoCallsPerTller; j++ {
				amount := int64(1 + j%7)
				r, err := caller.Call(amoPort, "transfer", acctA, acctB, amount)
				if err != nil {
					t.Errorf("teller %d: transfer %d: %v", i, j, err)
					return
				}
				if r.Command != bank.OutcomeOK {
					t.Errorf("teller %d: transfer %d: %s", i, j, r.Command)
					return
				}
				expA, expB = expA-amount, expB+amount
				ok++
			}
			mu.Lock()
			run.ok += ok
			run.expected[acctA] = expA
			run.expected[acctB] = expB
			mu.Unlock()
		}(i, g, proc)
	}
	wg.Wait()
	// Let in-flight duplicates land and drain before auditing: a raw
	// branch can still double-apply after the last reply was accepted.
	w.Quiesce()
	time.Sleep(20 * time.Millisecond)

	bg, ok := branchNode.GuardianByID(created.GuardianID)
	if !ok {
		t.Fatal("branch guardian vanished")
	}
	run.balances, err = bank.Snapshot(bg)
	if err != nil {
		t.Fatal(err)
	}
	run.applies, err = bank.Applies(bg)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestAMOTransfersExactlyOnce is the tentpole's acceptance claim: under
// 20% loss AND 20% duplication, every transfer through the at-most-once
// layer is applied exactly once — the branch's execution count equals the
// logical call count and every balance matches what the replies implied.
func TestAMOTransfersExactlyOnce(t *testing.T) {
	met := &amo.Metrics{}
	// The branch's Dedup filter reports into the package-wide default
	// metrics; sample them around the run to observe the server side.
	dedup0, replay0 := amo.Default.CallsDeduped.Load(), amo.Default.RepliesReplayed.Load()
	run := runAMOWorkload(t, false, met)
	deduped := amo.Default.CallsDeduped.Load() - dedup0
	replayed := amo.Default.RepliesReplayed.Load() - replay0
	if t.Failed() {
		t.FailNow()
	}
	want := int64(amoClients * amoCallsPerTller)
	if run.ok != want {
		t.Fatalf("ok transfers = %d, want %d", run.ok, want)
	}
	if run.applies != want {
		t.Fatalf("branch executed %d transfers for %d logical calls", run.applies, want)
	}
	for acct, exp := range run.expected {
		if got := run.balances[acct]; got != exp {
			t.Errorf("account %s: balance %d, want %d", acct, got, exp)
		}
	}
	// Sanity: the faults actually fired — a clean run proves nothing. At
	// 20% duplication over ~1200 request packets, zero suppressed
	// duplicates means the filter (or the fault injector) is broken.
	if met.Retries.Load() == 0 {
		t.Fatal("no retries under 20% loss")
	}
	if deduped == 0 {
		t.Fatal("no duplicates suppressed under 20% dup")
	}
	t.Logf("500 transfers: applies=%d retries=%d deduped=%d replayed=%d backoff=%v",
		run.applies, met.Retries.Load(), deduped, replayed,
		time.Duration(met.RetryBackoffTotal.Load()).Round(time.Millisecond))
}

// TestBalanceDoesNotSync: a balance read through the at-most-once port
// changes nothing, so it forces nothing — while a deposit still costs
// exactly the one forced write that commits its op and dedup records.
func TestBalanceDoesNotSync(t *testing.T) {
	w := guardian.NewWorld(guardian.Config{})
	defer w.Close()
	w.MustRegister(bank.BranchDef())
	branchNode := w.MustAddNode("branch")
	created, err := branchNode.Bootstrap(bank.BranchDefName)
	if err != nil {
		t.Fatal(err)
	}
	_, proc, err := w.MustAddNode("tellers").NewDriver("teller")
	if err != nil {
		t.Fatal(err)
	}
	caller, err := amo.NewCaller(proc, amo.CallerOptions{Timeout: 5 * time.Second, Metrics: &amo.Metrics{}})
	if err != nil {
		t.Fatal(err)
	}
	amoPort := created.Ports[1]
	if r, err := caller.Call(amoPort, "open", "acct"); err != nil || r.Command != bank.OutcomeOK {
		t.Fatalf("open: %v %v", r, err)
	}
	store := branchNode.Store()
	syncs := store.SyncCount()
	for i := 0; i < 100; i++ {
		if r, err := caller.Call(amoPort, "balance", "acct"); err != nil || r.Command != "balance_is" {
			t.Fatalf("balance %d: %v %v", i, r, err)
		}
	}
	if n := store.SyncCount(); n != syncs {
		t.Fatalf("100 balance reads forced the log %d times, want 0", n-syncs)
	}
	if r, err := caller.Call(amoPort, "deposit", "acct", int64(1)); err != nil || r.Command != bank.OutcomeOK {
		t.Fatalf("deposit: %v %v", r, err)
	}
	if n := store.SyncCount(); n != syncs+1 {
		t.Fatalf("one deposit forced the log %d times, want 1", n-syncs)
	}
}

// TestBareCallsDoubleApply is the control arm: the identical workload
// against a branch whose amo port executes every delivery (no dedup
// filter) demonstrably over-applies — the §3.5 "performed any number of
// times" hazard made measurable.
func TestBareCallsDoubleApply(t *testing.T) {
	met := &amo.Metrics{}
	run := runAMOWorkload(t, true, met)
	if t.Failed() {
		t.FailNow()
	}
	if run.applies <= run.ok {
		t.Fatalf("raw branch executed %d ≤ %d ok transfers; expected over-application", run.applies, run.ok)
	}
	deviating := 0
	for acct, exp := range run.expected {
		if run.balances[acct] != exp {
			deviating++
		}
	}
	if deviating == 0 {
		t.Fatalf("no account deviated despite %d extra applications", run.applies-run.ok)
	}
	t.Logf("raw: ok=%d applies=%d (%d double-applied), %d/%d accounts deviate",
		run.ok, run.applies, run.applies-run.ok, deviating, len(run.expected))
}
