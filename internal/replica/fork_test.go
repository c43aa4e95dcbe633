package replica_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/guardian"
	"repro/internal/netsim"
	"repro/internal/replica"
	"repro/internal/vtime"
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

// TestCleanCloseKeepsEligibility: an orderly close of a leader leaves a
// term log that restarts the member at the term it led, an ordinary
// follower like any other.
func TestCleanCloseKeepsEligibility(t *testing.T) {
	w, _, inner, cfg := soloWorld(t, replica.ModeAsync)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := replica.NewStore(inner, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, term, isSelf := st2.Leader(); term != 1 || isSelf {
		t.Fatalf("restarted member at term %d, leading %v; want term 1, not leading until it wins again", term, isSelf)
	}
}

// logRecords reads a member's copy of the branch log as "seq:data",
// with its checkpoint watermark.
func logRecords(t *testing.T, st *replica.Store) ([]string, uint64) {
	t.Helper()
	l, err := st.Inner().OpenLog(bankLogName(st))
	if err != nil {
		t.Fatal(err)
	}
	_, recs, _ := l.Recover()
	at := l.LastDurableSeq()
	if len(recs) > 0 {
		at = recs[0].Seq - 1
	}
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = fmt.Sprintf("%d:%x", r.Seq, r.Data)
	}
	return out, at
}

// sameLog reports whether two members hold the same branch log: the
// same tail, and the same records wherever both hold them one by one.
func sameLog(t *testing.T, a, b *replica.Store) bool {
	ra, wa := logRecords(t, a)
	rb, wb := logRecords(t, b)
	if bankSeq(a) != bankSeq(b) {
		return false
	}
	// Drop what one side folded into a checkpoint the other did not.
	ra, rb = ra[max(int(wb)-int(wa), 0):], rb[max(int(wa)-int(wb), 0):]
	return reflect.DeepEqual(ra, rb)
}

// TestForkQuarantineAndCheckpointHeal drives a true fork through the
// public surface and watches the fork rule heal it without any
// checkpoint (the name is from when only a checkpoint could):
//
//  1. the leader m1 is partitioned away and writes a record only it
//     holds (the group elects m2/m3 and moves on),
//  2. on rejoining, the deposed m1 is an ordinary follower: its orphan
//     sits at a seq where the new leader writes records of its own term,
//  3. the group keeps committing, and m1 truncates the orphan and takes
//     the leader's records — its log ends up the leader's, record for
//     record.
func TestForkQuarantineAndCheckpointHeal(t *testing.T) {
	h := deploy(t, replica.ModeQuorum)
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
	select {
	case <-released:
	case <-time.After(waitFor):
		t.Fatal("deposition did not release the fenced Sync")
	}

	// The group keeps committing; m1 must cut the orphan and converge.
	newSvc, _ := h.resolveService()
	deadline := time.Now().Add(waitFor)
	for {
		mustOK(t, c, newSvc, "deposit", "alice", int64(1))
		if _, lst := h.currentLeader(); lst != nil && sameLog(t, st1, lst) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the deposed member never converged on the leader's log: %+v", st1.ReplStats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if s := st1.ReplStats(); s.ForksDetected == 0 {
		t.Fatalf("the orphan was not truncated: %+v", s)
	}
	for m, st := range h.stores {
		if n := st.ReplStats().CheckpointsShipped; n != 0 {
			t.Fatalf("%s shipped %d checkpoints; the branch takes none", m, n)
		}
	}
	recs, _ := logRecords(t, st1)
	for _, r := range recs {
		if strings.HasSuffix(r, fmt.Sprintf("%x", "orphan")) {
			t.Fatalf("the orphan record survived the heal: %s", r)
		}
	}
}

// TestNewLeaderServesOnlyOnceItsTermIsQuorumHeld: a leader elected with a
// tail no quorum matched under its own term must not let the taken-over
// application answer until a record of its term is quorum-held — a
// dedup-cached retry or a read is answered with no Sync of its own.
// Otherwise: A, leading term 2, logs r only on itself and dies; C, leading
// term 3, logs x only on itself and dies; A returns, wins B's vote and
// answers a retry of r from its cache, then dies; C returns, wins B's vote
// ((3, 5) beats (2, 5)) and the fork rule truncates r everywhere — an
// acknowledged effect lost. Here the new leader's first shipment, its
// barrier, cuts it off from the group, and it must not take over until the
// partition heals.
func TestNewLeaderServesOnlyOnceItsTermIsQuorumHeld(t *testing.T) {
	var h *harness
	var once sync.Once
	cutOff := make(chan string, 1)
	h = deployWith(t, replica.ModeQuorum, func(member string) fault.Hook {
		if member == "m1" {
			return nil
		}
		return func(point, _ string) {
			if point != fault.BeforeShip {
				return
			}
			once.Do(func() {
				var rest []netsim.Addr
				for _, n := range []string{"m1", "m2", "m3", "registry", "app"} {
					if n != member {
						rest = append(rest, netsim.Addr(n))
					}
				}
				h.w.Net().Partition([]netsim.Addr{netsim.Addr(member)}, rest)
				cutOff <- member
			})
		}
	})
	svc, _ := h.resolveService()
	c := h.caller()
	mustOK(t, c, svc, "open", "alice")
	mustOK(t, c, svc, "deposit", "alice", int64(100))
	h.nodes["m1"].Crash() // permanent: never restarted

	var cut string
	select {
	case cut = <-cutOff:
	case <-time.After(waitFor):
		t.Fatal("no new leader shipped a record of its term before serving")
	}
	for end := time.Now().Add(40 * hb); time.Now().Before(end); time.Sleep(hb / 2) {
		if h.stores[cut].AppGuardian() != nil {
			t.Fatalf("%s took over before a quorum held a record of its term", cut)
		}
	}
	h.w.Net().Heal()
	waitUntil(t, "a leader to take over once the partition heals", func() bool {
		_, st := h.currentLeader()
		return st != nil && st.AppGuardian() != nil && st.AppGuardian().Alive()
	})
	waitUntil(t, "the service binding to move", func() bool {
		p, _, err := h.ns.Lookup(svcName, time.Second)
		return err == nil && p.Node != "m1"
	})
	newSvc, _ := h.resolveService()
	if got := balance(t, c, newSvc, "alice"); got != 100 {
		t.Fatalf("balance after the healed failover = %d, want 100", got)
	}
}
