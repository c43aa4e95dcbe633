package replica_test

import (
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/guardian"
	"repro/internal/netsim"
	"repro/internal/replica"
	"repro/internal/vtime"
	"repro/internal/xrep"
)

// soloWorld boots a world holding only member m1 of a three-member
// group, returning the member store and the inner store it wraps (so a
// test can model kill -9 by re-running NewStore over the same disk).
func soloWorld(t *testing.T, mode replica.Mode) (*guardian.World, *replica.Store, durable.Store, replica.Config) {
	t.Helper()
	inner := durable.NewMem(vtime.NewReal(), durable.MemConfig{})
	cfg := replica.Config{
		Group:   "gq",
		Self:    "m1",
		Members: []string{"m1", "m2", "m3"},
		Mode:    mode,
	}
	var st *replica.Store
	w := guardian.NewWorld(guardian.Config{
		Tuning: guardian.Tuning{HeartbeatInterval: hb},
		Store: func(node string) (durable.Store, error) {
			if node != "m1" {
				return nil, nil
			}
			s, err := replica.NewStore(inner, cfg)
			if err != nil {
				return nil, err
			}
			st = s
			return s, nil
		},
	})
	t.Cleanup(func() { _ = w.Close() })
	w.MustRegister(replica.Def())
	n := w.MustAddNode("m1")
	if _, err := n.Bootstrap(replica.DefName); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "m1 to assume initial leadership", func() bool {
		_, _, isSelf := st.Leader()
		return isSelf
	})
	return w, st, inner, cfg
}

// TestRiskMarkerQuarantinesRestartedPrimary is the review's high-severity
// scenario: a primary killed with locally durable records that never
// reached the group (the before-ship window, modeled here by a member
// whose peers do not exist) must restart QUARANTINED, not eligible —
// otherwise it can later win an election and serve records the group
// never committed. The fence must come from the disk alone: the restart
// is modeled by building a brand-new Store over the same inner store,
// exactly what a real process restart does.
func TestRiskMarkerQuarantinesRestartedPrimary(t *testing.T) {
	_, st, inner, cfg := soloWorld(t, replica.ModeAsync)

	l, err := st.OpenLog("app-q")
	if err != nil {
		t.Fatal(err)
	}
	l.AppendSync([]byte("unshipped"))
	if st.Diverged() {
		t.Fatal("live leader quarantined itself before any deposition")
	}

	// kill -9: no Close, no Crash — just a fresh Store over the same disk.
	st2, err := replica.NewStore(inner, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Diverged() {
		t.Fatal("restarted primary is eligible despite unacknowledged durable records: " +
			"the risk marker did not survive the crash")
	}
}

// TestCleanCloseKeepsEligibility is the contrast case: an orderly close
// of a leader whose reign left nothing at risk must NOT quarantine it.
func TestCleanCloseKeepsEligibility(t *testing.T) {
	w, _, inner, cfg := soloWorld(t, replica.ModeAsync)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := replica.NewStore(inner, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Diverged() {
		t.Fatal("clean close of an idle leader quarantined it")
	}
}

// TestForkQuarantineAndCheckpointHeal drives the full quarantine
// lifecycle through the public surface:
//
//  1. the leader m1 is partitioned away and writes a record only it
//     holds (a true fork: the group elects m2/m3 and moves on),
//  2. on rejoining, the deposed m1 finds its reign's records were never
//     quorum-held and quarantines itself — it must not stand again, and
//     its acks must not count toward quorum,
//  3. the group keeps committing without m1 (quarantine costs one
//     member, never availability at n=3),
//  4. the new leader's checkpoint eventually supersedes m1's forked log
//     wholesale, which is the only sound heal for a true fork (logs
//     never truncate), and m1 regains candidacy.
func TestForkQuarantineAndCheckpointHeal(t *testing.T) {
	// cpEvery=2: the bank branch folds its state into a checkpoint every
	// two mutating ops, so the heal path gets exercised quickly.
	h := deploy(t, replica.ModeQuorum, xrep.Int(2))
	svc, _ := h.resolveService()
	c := h.caller()
	mustOK(t, c, svc, "open", "alice")
	mustOK(t, c, svc, "deposit", "alice", int64(100))

	st1 := h.stores["m1"]
	seqBefore := bankSeq(st1)
	if seqBefore == 0 {
		t.Fatal("primary logged nothing")
	}

	// Isolate the leader, then write through its replicated log: the
	// record becomes locally durable before the quorum wait, which never
	// resolves — the before-ship/after-ship crash windows in miniature.
	h.w.Net().Partition(
		[]netsim.Addr{"m1"},
		[]netsim.Addr{"m2", "m3", "registry", "app"},
	)
	l, err := st1.OpenLog(bankLogName(st1))
	if err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	go func() {
		l.AppendSync([]byte("orphan")) // blocks until the fence closes
		close(released)
	}()
	waitUntil(t, "the orphan record to become locally durable", func() bool {
		return bankSeq(st1) == seqBefore+1
	})

	// currentLeader can't be used here: the partitioned m1 still believes
	// it leads until it hears the new term. Ask the majority side only.
	waitUntil(t, "the majority side to elect a new leader", func() bool {
		for _, m := range []string{"m2", "m3"} {
			lst := h.stores[m]
			if _, _, isSelf := lst.Leader(); isSelf &&
				lst.AppGuardian() != nil && lst.AppGuardian().Alive() {
				return true
			}
		}
		return false
	})

	h.w.Net().Heal()

	// Rejoining, m1 hears the higher term, is deposed, finds the orphan
	// was never quorum-held, and quarantines itself.
	waitUntil(t, "the deposed leader to quarantine itself", func() bool {
		return st1.Diverged()
	})
	select {
	case <-released:
	case <-time.After(waitFor):
		t.Fatal("deposition did not release the fenced Sync")
	}
	if s := st1.ReplStats(); s.ForksDetected == 0 {
		t.Fatalf("quarantine not counted: %+v", s)
	}

	// The group must keep committing with m1 sidelined, and the new
	// leader's checkpoints must eventually supersede m1's forked log —
	// the heal. Every deposit advances the leader's log and, at
	// cpEvery=2, rolls a fresh checkpoint for the replicator to ship.
	newSvc, _ := h.resolveService()
	deadline := time.Now().Add(waitFor)
	healed := false
	for time.Now().Before(deadline) {
		mustOK(t, c, newSvc, "deposit", "alice", int64(1))
		if !st1.Diverged() {
			healed = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !healed {
		t.Fatalf("quarantined member never healed: %+v", st1.ReplStats())
	}
	if s := st1.ReplStats(); s.Heals == 0 {
		t.Fatalf("heal not counted: %+v", s)
	}

	// Healed means converged: the forked record is gone, replaced by the
	// group's history.
	_, lst := h.currentLeader()
	waitUntil(t, "the healed member to converge on the group's log", func() bool {
		return lst != nil && bankSeq(st1) == bankSeq(lst)
	})
}
