package bank_test

import (
	"testing"
	"time"

	"repro/internal/amo"
	"repro/internal/bank"
	"repro/internal/guardian"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/vtime"
)

// amoCallAllocCeiling is what one at-most-once deposit may allocate, end to
// end on both nodes: the measured 44 plus ten per cent.
const amoCallAllocCeiling = 48

// TestAmoCallAllocCeiling pins the whole call path's allocation count —
// caller envelope, send, netsim transit, decode, dispatch, receive, dedup,
// op and dedup records, reply and back — so a tree-building encoder or a
// per-receive waiter cannot return unnoticed. The figure counts every
// goroutine's allocations, so it is comparable to guardianbench's
// call_small allocs_per_op less the periodic checkpoint.
func TestAmoCallAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	clock := vtime.NewReal()
	w := guardian.NewWorld(guardian.Config{
		Clock:     clock,
		Transport: transport.NewSim(netsim.New(clock, netsim.Config{Seed: 1})),
	})
	defer w.Close()
	w.MustRegister(bank.BranchDef())
	cr, err := w.MustAddNode("branch").Bootstrap(bank.BranchDefName)
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := w.MustAddNode("cli").NewDriver("teller")
	if err != nil {
		t.Fatal(err)
	}
	c, err := amo.NewCaller(drv, amo.CallerOptions{Timeout: 5 * time.Second, Metrics: &amo.Metrics{}})
	if err != nil {
		t.Fatal(err)
	}
	amoPort := cr.Ports[1]
	if rep, err := c.Call(amoPort, "open", "acct"); err != nil || rep.Command != bank.OutcomeOK {
		t.Fatalf("open: %v %v", rep, err)
	}
	args := []any{"acct", int64(1)}
	deposit := func() {
		rep, err := c.Call(amoPort, "deposit", args...)
		if err != nil || rep.Command != bank.OutcomeOK {
			t.Fatalf("deposit: %v %v", rep, err)
		}
	}
	for i := 0; i < 200; i++ {
		deposit() // warm the pools, port fifos and log arrays
	}
	n := testing.AllocsPerRun(2000, deposit)
	t.Logf("one amo deposit allocates %.1f times", n)
	if n > amoCallAllocCeiling {
		t.Errorf("one amo deposit allocates %.1f times, ceiling %d", n, amoCallAllocCeiling)
	}
}
