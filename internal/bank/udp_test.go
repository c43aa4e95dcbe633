package bank_test

import (
	"testing"
	"time"

	"repro/internal/amo"
	"repro/internal/bank"
	"repro/internal/guardian"
	"repro/internal/transport"
)

// TestTransfersExactlyOnceOverLossyUDP is the real-wire variant of the
// at-most-once acceptance claim: two guardian worlds that share no memory
// and no simulator, joined only by UDP datagrams on loopback, with a fault
// wrapper around each socket losing 20% and duplicating 20% of outbound
// packets. Every transfer the teller world's replies confirm must have
// been applied exactly once by the branch world — the same audit the
// simulator runs, now across an actual kernel socket pair. The cross-OS-
// process version of this claim lives in cmd/node's test; this one keeps
// both ends in-test so it can read the branch's applies counter directly.
func TestTransfersExactlyOnceOverLossyUDP(t *testing.T) {
	const transfers = 60

	newEnd := func(seed int64, local transport.Addr) (*transport.UDP, *transport.Wrapper) {
		u, err := transport.NewUDP(transport.UDPConfig{
			Peers: map[transport.Addr]string{local: "127.0.0.1:0"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return u, transport.Wrap(u, transport.WrapperConfig{
			Seed:     seed,
			LossRate: 0.20,
			DupRate:  0.20,
		})
	}
	branchUDP, branchTr := newEnd(1, "branch")
	tellerUDP, tellerTr := newEnd(2, "tellers")

	branchWorld := guardian.NewWorld(guardian.Config{Transport: branchTr})
	defer branchWorld.Close()
	tellerWorld := guardian.NewWorld(guardian.Config{Transport: tellerTr})
	defer tellerWorld.Close()

	branchWorld.MustRegister(bank.BranchDef())
	branchNode := branchWorld.MustAddNode("branch")
	created, err := branchNode.Bootstrap(bank.BranchDefName)
	if err != nil {
		t.Fatal(err)
	}
	amoPort := created.Ports[1]

	tellerNode := tellerWorld.MustAddNode("tellers")
	// The teller world is configured with the branch's socket address — the
	// one piece of static wiring a real deployment needs. The branch world
	// gets no peer table at all: it learns the teller's return address from
	// the first verified frame it receives (transport.Learn), exactly how
	// cmd/node servers route replies to unannounced clients.
	if err := tellerUDP.SetPeer("branch", branchUDP.LocalAddr("branch")); err != nil {
		t.Fatal(err)
	}

	_, proc, err := tellerNode.NewDriver("teller")
	if err != nil {
		t.Fatal(err)
	}
	met := &amo.Metrics{}
	dedup0 := amo.Default.CallsDeduped.Load()
	caller, err := amo.NewCaller(proc, amo.CallerOptions{
		Timeout: 40 * time.Millisecond,
		Retries: 30,
		Backoff: amo.BackoffPolicy{Base: 5 * time.Millisecond, Jitter: 0.5},
		Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}

	mustOK := func(cmd string, args ...any) {
		t.Helper()
		r, err := caller.Call(amoPort, cmd, args...)
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		if r.Command != bank.OutcomeOK {
			t.Fatalf("%s: outcome %s", cmd, r.Command)
		}
	}
	mustOK("open", "alice")
	mustOK("open", "bob")
	mustOK("deposit", "alice", int64(10_000), "seed-funds")
	var moved int64
	for i := 0; i < transfers; i++ {
		amount := int64(1 + i%9)
		mustOK("transfer", "alice", "bob", amount)
		moved += amount
	}

	// Drain the straggler loopback datagrams the kernel still holds. The
	// branch's counters are stable once two consecutive observations agree.
	tellerTr.Quiesce()
	branchTr.Quiesce()
	bg, ok := branchNode.GuardianByID(created.GuardianID)
	if !ok {
		t.Fatal("branch guardian vanished")
	}
	applies, err := bank.Applies(bg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		again, err := bank.Applies(bg)
		if err != nil {
			t.Fatal(err)
		}
		if again == applies {
			break
		}
		applies = again
	}

	// 3 setup calls + the transfers, each applied exactly once.
	want := int64(3 + transfers)
	if applies != want {
		t.Fatalf("branch executed %d mutations for %d logical calls", applies, want)
	}
	balances, err := bank.Snapshot(bg)
	if err != nil {
		t.Fatal(err)
	}
	if balances["alice"] != 10_000-moved || balances["bob"] != moved {
		t.Fatalf("balances alice=%d bob=%d, want %d/%d",
			balances["alice"], balances["bob"], 10_000-moved, moved)
	}

	// The claim is vacuous unless the faults really fired on the wire.
	ts, bs := tellerTr.InjectedStats(), branchTr.InjectedStats()
	if ts.Lost == 0 || bs.Lost == 0 {
		t.Fatalf("loss injector idle: teller=%+v branch=%+v", ts, bs)
	}
	if ts.Duplicated == 0 || bs.Duplicated == 0 {
		t.Fatalf("dup injector idle: teller=%+v branch=%+v", ts, bs)
	}
	if met.Retries.Load() == 0 {
		t.Fatal("no retries under 20% loss")
	}
	if amo.Default.CallsDeduped.Load() == dedup0 {
		t.Fatal("no duplicates suppressed under 20% dup")
	}
	t.Logf("udp: applies=%d retries=%d teller-faults{lost=%d dup=%d} branch-faults{lost=%d dup=%d} recv=%d bytes",
		applies, met.Retries.Load(), ts.Lost, ts.Duplicated, bs.Lost, bs.Duplicated,
		tellerUDP.Stats().BytesRecv)
}
