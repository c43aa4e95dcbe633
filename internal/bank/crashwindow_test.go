package bank_test

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/amo"
	"repro/internal/bank"
	"repro/internal/fault"
	"repro/internal/guardian"
	"repro/internal/netsim"
	"repro/internal/sendprim"
	"repro/internal/xrep"
)

// TestAckedEffectsSurviveCrashAtUnsyncedSend drives every mutating native
// arm (open, deposit, withdraw, transfer_out → transfer_in) and every amo
// command from a client on another node, while the world crashes and
// restarts a branch node wherever one of its messages leaves ahead of its
// log's Sync (the send-unsynced window). Every acknowledged effect must
// still be there after a last crash and recovery of both branches. A
// branch that replied before forcing its record loses it to the crash.
func TestAckedEffectsSurviveCrashAtUnsyncedSend(t *testing.T) {
	var (
		w     *guardian.World
		fired atomic.Int64
	)
	w = guardian.NewWorld(guardian.Config{
		Net: netsim.Config{BaseLatency: 200 * time.Microsecond},
		Crash: func(node string) fault.Hook {
			if !strings.HasPrefix(node, "branch") {
				return nil
			}
			return func(point, _ string) {
				if point != fault.SendUnsynced {
					return
				}
				fired.Add(1)
				if n, err := w.Node(node); err == nil && n.Alive() {
					n.Crash()
					if err := n.Restart(); err != nil {
						t.Errorf("restarting %s: %v", node, err)
					}
				}
			}
		},
	})
	defer w.Close()
	w.MustRegister(bank.BranchDef())
	na, nb := w.MustAddNode("branch-a"), w.MustAddNode("branch-b")
	ca, err := na.Bootstrap(bank.BranchDefName)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := nb.Bootstrap(bank.BranchDefName)
	if err != nil {
		t.Fatal(err)
	}
	_, proc, err := w.MustAddNode("teller").NewDriver("teller")
	if err != nil {
		t.Fatal(err)
	}
	// A request that lands while its branch is down is retried; every
	// native op carries an op id or is answered account_exists again.
	opts := sendprim.CallOptions{Timeout: 100 * time.Millisecond, Retries: 20, Backoff: 5 * time.Millisecond}
	native := func(port xrep.PortName, want string, cmd string, args ...any) *guardian.Message {
		t.Helper()
		m, err := sendprim.Call(proc, port, bank.ClientReplyType, opts, cmd, args...)
		if err != nil {
			t.Fatalf("%s %v: %v", cmd, args, err)
		}
		if m.Command != want && !(cmd == "open" && m.Command == bank.OutcomeExists) {
			t.Fatalf("%s %v: %s %v, want %s", cmd, args, m.Command, m.Args, want)
		}
		return m
	}
	caller, err := amo.NewCaller(proc, amo.CallerOptions{Timeout: 100 * time.Millisecond, Retries: 20,
		Backoff: amo.BackoffPolicy{Base: 5 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	viaAMO := func(want string, cmd string, args ...any) *amo.Reply {
		t.Helper()
		r, err := caller.Call(ca.Ports[1], cmd, args...)
		if err != nil {
			t.Fatalf("amo %s %v: %v", cmd, args, err)
		}
		if r.Command != want {
			t.Fatalf("amo %s %v: %s, want %s", cmd, args, r.Command, want)
		}
		return r
	}

	a, b := ca.Ports[0], cb.Ports[0]
	native(a, bank.OutcomeOK, "open", "alice")
	native(b, bank.OutcomeOK, "open", "bob")
	native(a, bank.OutcomeOK, "deposit", "alice", int64(100), "d1")
	native(a, bank.OutcomeOK, "withdraw", "alice", int64(30), "w1")
	native(a, bank.OutcomeOK, "transfer_out", "alice", int64(20), "t1", b, "bob")
	viaAMO(bank.OutcomeOK, "open", "carol")
	viaAMO(bank.OutcomeOK, "deposit", "carol", int64(50))
	viaAMO(bank.OutcomeOK, "withdraw", "carol", int64(10))
	viaAMO(bank.OutcomeOK, "transfer", "carol", "alice", int64(5))
	if r := viaAMO("balance_is", "balance", "carol"); r.Int(0) != 35 {
		t.Fatalf("amo balance carol = %d, want 35", r.Int(0))
	}
	t.Logf("send-unsynced fired %d times", fired.Load())

	for _, n := range []*guardian.Node{na, nb} {
		n.Crash()
		if err := n.Restart(); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		port xrep.PortName
		acct string
		want int64
	}{{a, "alice", 55}, {b, "bob", 20}, {a, "carol", 35}} {
		if m := native(c.port, "balance_is", "balance", c.acct); m.Int(0) != c.want {
			t.Errorf("after recovery %s = %d, want %d: an acknowledged effect was lost", c.acct, m.Int(0), c.want)
		}
	}
}
