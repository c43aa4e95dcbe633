package replica_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/amo"
	"repro/internal/bank"
	"repro/internal/durable"
	"repro/internal/guardian"
	"repro/internal/nameserv"
	"repro/internal/replica"
	"repro/internal/vtime"
	"repro/internal/xrep"
)

// Small heartbeat so elections resolve in tens of milliseconds; the
// waits below are generous wall-clock deadlines, not sleeps.
const hb = 5 * time.Millisecond

const waitFor = 15 * time.Second

const svcName = "bank/main"

type harness struct {
	t       *testing.T
	w       *guardian.World
	members []string
	nodes   map[string]*guardian.Node
	stores  map[string]*replica.Store
	nsPort  xrep.PortName
	cliG    *guardian.Guardian
	cliPr   *guardian.Process
	ns      *nameserv.Client
}

// deploy builds a three-member quorum group (m1 initial primary), a name
// service on its own node, and a driver client node.
func deploy(t *testing.T, mode replica.Mode, branchArgs ...any) *harness {
	t.Helper()
	return deployWith(t, mode, func(string) replica.Hooks { return replica.Hooks{} }, branchArgs...)
}

// deployWith is deploy with each member's replication hooks.
func deployWith(t *testing.T, mode replica.Mode, hooks func(member string) replica.Hooks, branchArgs ...any) *harness {
	t.Helper()
	members := []string{"m1", "m2", "m3"}
	stores := make(map[string]*replica.Store)
	var mu sync.Mutex
	nsPort := xrep.PortName{Node: "registry", Guardian: 2, Port: 1}
	w := guardian.NewWorld(guardian.Config{
		Tuning: guardian.Tuning{HeartbeatInterval: hb},
		Store: func(node string) (durable.Store, error) {
			isMember := false
			for _, m := range members {
				if m == node {
					isMember = true
				}
			}
			if !isMember {
				return nil, nil
			}
			st, err := replica.NewStore(
				durable.NewMem(vtime.NewReal(), durable.MemConfig{}),
				replica.Config{
					Group:       "g1",
					Self:        node,
					Members:     members,
					Mode:        mode,
					AppDef:      bank.BranchDefName,
					AppArgs:     branchArgs,
					Service:     svcName,
					NS:          nsPort,
					ServicePort: 1,
					Hooks:       hooks(node),
				})
			if err != nil {
				return nil, err
			}
			mu.Lock()
			stores[node] = st
			mu.Unlock()
			return st, nil
		},
	})
	t.Cleanup(func() { _ = w.Close() })
	w.MustRegister(replica.Def())
	w.MustRegister(bank.BranchDef())
	w.MustRegister(nameserv.Def())

	reg := w.MustAddNode("registry")
	if _, err := reg.Bootstrap(nameserv.DefName); err != nil {
		t.Fatal(err)
	}
	nodes := map[string]*guardian.Node{"registry": reg}
	for _, m := range members {
		n := w.MustAddNode(m)
		nodes[m] = n
		if _, err := n.Bootstrap(replica.DefName); err != nil {
			t.Fatal(err)
		}
	}
	created, err := nodes["m1"].Bootstrap(bank.BranchDefName, branchArgs...)
	if err != nil {
		t.Fatal(err)
	}
	stores["m1"].Adopt(nodes["m1"], created)

	cliNode := w.MustAddNode("app")
	nodes["app"] = cliNode
	cliG, cliPr, err := cliNode.NewDriver("client")
	if err != nil {
		t.Fatal(err)
	}
	ns, err := nameserv.NewClient(cliPr, nsPort)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{t: t, w: w, members: members, nodes: nodes,
		stores: stores, nsPort: nsPort, cliG: cliG, cliPr: cliPr, ns: ns}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(waitFor)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// bankSeq reports a member's durable position in the replicated branch
// log (0 when no record has arrived yet).
func bankSeq(st *replica.Store) uint64 {
	for _, name := range st.Inner().LogNames() {
		if strings.HasPrefix(name, bank.BranchDefName+"-") {
			l, err := st.Inner().OpenLog(name)
			if err != nil {
				return 0
			}
			return l.LastDurableSeq()
		}
	}
	return 0
}

// bankLogName returns the replicated branch log's name on a member.
func bankLogName(st *replica.Store) string {
	for _, name := range st.Inner().LogNames() {
		if strings.HasPrefix(name, bank.BranchDefName+"-") {
			return name
		}
	}
	return ""
}

// resolveService waits for the name service to hold the service binding
// and returns it with its version.
func (h *harness) resolveService() (xrep.PortName, int64) {
	h.t.Helper()
	var port xrep.PortName
	var version int64
	waitUntil(h.t, "service binding", func() bool {
		p, v, err := h.ns.Lookup(svcName, time.Second)
		if err != nil {
			return false
		}
		port, version = p, v
		return true
	})
	return port, version
}

// caller builds an at-most-once session whose destination re-resolves
// through the name service — the client side of transparent failover.
func (h *harness) caller() *amo.Caller {
	h.t.Helper()
	c, err := amo.NewCaller(h.cliPr, amo.CallerOptions{
		Timeout: 250 * time.Millisecond,
		Retries: 30,
		Backoff: amo.BackoffPolicy{Base: 5 * time.Millisecond, Jitter: 0.3},
		Resolve: func() (xrep.PortName, bool) {
			p, _, err := h.ns.Lookup(svcName, time.Second)
			return p, err == nil
		},
	})
	if err != nil {
		h.t.Fatal(err)
	}
	return c
}

// mustOK performs one amo call and requires outcome ok.
func mustOK(t *testing.T, c *amo.Caller, to xrep.PortName, cmd string, args ...any) {
	t.Helper()
	r, err := c.Call(to, cmd, args...)
	if err != nil {
		t.Fatalf("%s: %v", cmd, err)
	}
	if r.Command != bank.OutcomeOK {
		t.Fatalf("%s: outcome %s", cmd, r.Command)
	}
}

// balance reads an account via the at-most-once port.
func balance(t *testing.T, c *amo.Caller, to xrep.PortName, acct string) int64 {
	t.Helper()
	r, err := c.Call(to, "balance", acct)
	if err != nil {
		t.Fatalf("balance: %v", err)
	}
	if r.Command != "balance_is" {
		t.Fatalf("balance: outcome %s", r.Command)
	}
	return r.Int(0)
}

// currentLeader returns the member store that believes it leads.
func (h *harness) currentLeader() (string, *replica.Store) {
	for _, m := range h.members {
		if _, _, isSelf := h.stores[m].Leader(); isSelf {
			return m, h.stores[m]
		}
	}
	return "", nil
}

func TestQuorumReplicationReachesFollowers(t *testing.T) {
	h := deploy(t, replica.ModeQuorum)
	svc, _ := h.resolveService()
	c := h.caller()
	mustOK(t, c, svc, "open", "alice")
	mustOK(t, c, svc, "deposit", "alice", int64(100))
	mustOK(t, c, svc, "deposit", "alice", int64(50))

	want := bankSeq(h.stores["m1"])
	if want == 0 {
		t.Fatal("primary logged nothing")
	}
	waitUntil(t, "followers to hold the primary's log", func() bool {
		return bankSeq(h.stores["m2"]) == want && bankSeq(h.stores["m3"]) == want
	})
	if s := h.stores["m1"].ReplStats(); s.ShippedRecords == 0 {
		t.Fatalf("primary shipped nothing: %+v", s)
	}
	if s := h.stores["m2"].ReplStats(); s.AppliedRecords == 0 {
		t.Fatalf("follower applied nothing: %+v", s)
	}
}

func TestAsyncModeConverges(t *testing.T) {
	h := deploy(t, replica.ModeAsync)
	svc, _ := h.resolveService()
	c := h.caller()
	mustOK(t, c, svc, "open", "alice")
	mustOK(t, c, svc, "deposit", "alice", int64(7))
	want := bankSeq(h.stores["m1"])
	waitUntil(t, "async followers to converge", func() bool {
		return bankSeq(h.stores["m2"]) == want && bankSeq(h.stores["m3"]) == want
	})
}

func TestFailoverElectsTakesOverAndRebinds(t *testing.T) {
	h := deploy(t, replica.ModeQuorum)
	svc, v0 := h.resolveService()
	c := h.caller()
	mustOK(t, c, svc, "open", "alice")
	mustOK(t, c, svc, "deposit", "alice", int64(100))
	mustOK(t, c, svc, "deposit", "alice", int64(50))

	h.nodes["m1"].Crash() // permanent: never restarted

	waitUntil(t, "a follower to take over", func() bool {
		m, st := h.currentLeader()
		return m != "" && m != "m1" && st.AppGuardian() != nil && st.AppGuardian().Alive()
	})
	waitUntil(t, "the service binding to move", func() bool {
		p, v, err := h.ns.Lookup(svcName, time.Second)
		return err == nil && v > v0 && p.Node != "m1"
	})

	// The same session keeps working: Resolve follows the re-bound name.
	newSvc, _ := h.resolveService()
	if got := balance(t, c, newSvc, "alice"); got != 150 {
		t.Fatalf("balance after failover = %d, want 150 (acknowledged effects lost)", got)
	}
	mustOK(t, c, newSvc, "deposit", "alice", int64(25))
	if got := balance(t, c, newSvc, "alice"); got != 175 {
		t.Fatalf("balance = %d, want 175", got)
	}

	var takeovers, elections int64
	for _, m := range h.members[1:] {
		s := h.stores[m].ReplStats()
		takeovers += s.Takeovers
		elections += s.Elections
	}
	if takeovers == 0 {
		t.Fatal("no takeover recorded")
	}
	if elections == 0 {
		t.Fatal("no election recorded")
	}
}

func TestStaleTermIsFenced(t *testing.T) {
	h := deploy(t, replica.ModeQuorum)
	svc, _ := h.resolveService()
	c := h.caller()
	mustOK(t, c, svc, "open", "alice")
	mustOK(t, c, svc, "deposit", "alice", int64(100))

	h.nodes["m1"].Crash()
	var leader string
	waitUntil(t, "failover", func() bool {
		m, st := h.currentLeader()
		if m == "" || m == "m1" || st.AppGuardian() == nil {
			return false
		}
		leader = m
		return true
	})

	// Replay the dead primary's voice: an append stamped with term 1,
	// which the election has left behind. The fence must reject it.
	st := h.stores[leader]
	before := st.ReplStats().FencedStale
	seqBefore := bankSeq(st)
	rec := xrep.Seq{xrep.Seq{xrep.Int(int64(seqBefore + 1)), xrep.Int(1), xrep.Bytes([]byte("forged"))}}
	if err := h.cliPr.Send(replica.PortAt(leader), "rep_append",
		"g1", int64(1), bankLogName(st), int64(seqBefore), int64(1), rec); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the stale append to be fenced", func() bool {
		return st.ReplStats().FencedStale > before
	})
	if got := bankSeq(st); got != seqBefore {
		t.Fatalf("stale append mutated the log: seq %d -> %d", seqBefore, got)
	}
}

func TestDedupStateSurvivesFailover(t *testing.T) {
	h := deploy(t, replica.ModeQuorum)
	svc, _ := h.resolveService()

	rp, err := h.cliG.NewPort(amo.ReplyType, 16)
	if err != nil {
		t.Fatal(err)
	}
	// send issues one hand-crafted at-most-once envelope and returns the
	// outcome echoed for that seq, retrying until the destination answers.
	send := func(to xrep.PortName, seq, ack int64, cmd string, args ...any) string {
		t.Helper()
		enc, err := xrep.EncodeAll(args...)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(waitFor)
		for time.Now().Before(deadline) {
			if err := h.cliPr.SendReplyTo(to, rp.Name(), amo.ReqCommand,
				"dup-client", seq, ack, cmd, enc); err != nil {
				t.Fatal(err)
			}
			m, st := h.cliPr.Receive(250*time.Millisecond, rp)
			if st != guardian.RecvOK || m.IsFailure() {
				continue
			}
			if m.Command == amo.ReplyCommand && m.Int(0) == seq {
				return m.Str(1)
			}
		}
		t.Fatalf("no reply for seq %d", seq)
		return ""
	}

	if out := send(svc, 1, 0, "open", "alice"); out != bank.OutcomeOK {
		t.Fatalf("open: %s", out)
	}
	if out := send(svc, 2, 1, "deposit", "alice", int64(100)); out != bank.OutcomeOK {
		t.Fatalf("deposit: %s", out)
	}

	h.nodes["m1"].Crash()
	waitUntil(t, "failover", func() bool {
		m, st := h.currentLeader()
		return m != "" && m != "m1" && st.AppGuardian() != nil && st.AppGuardian().Alive()
	})
	waitUntil(t, "rebind", func() bool {
		p, _, err := h.ns.Lookup(svcName, time.Second)
		return err == nil && p.Node != "m1"
	})
	newSvc, _ := h.resolveService()

	// The client's retry of the already-acknowledged deposit arrives at
	// the NEW primary. The dedup table rode the replicated log: the retry
	// must echo the remembered outcome without re-applying.
	if out := send(newSvc, 2, 1, "deposit", "alice", int64(100)); out != bank.OutcomeOK {
		t.Fatalf("duplicate deposit: %s", out)
	}
	if out := send(newSvc, 3, 2, "balance", "alice"); out != "balance_is" {
		t.Fatalf("balance: %s", out)
	}
	_, lst := h.currentLeader()
	applies, err := bank.Applies(lst.AppGuardian())
	if err != nil {
		t.Fatal(err)
	}
	if applies != 0 {
		t.Fatalf("retry re-applied on the new primary: applies = %d, want 0", applies)
	}
	// And the money is right: exactly one deposit.
	c := h.caller()
	if got := balance(t, c, newSvc, "alice"); got != 100 {
		t.Fatalf("balance = %d, want 100 (dedup state lost in failover)", got)
	}
}

func TestCheckpointCatchUpAfterFollowerOutage(t *testing.T) {
	// Branch checkpoints every 4 mutating messages, so the log compacts
	// past what the crashed follower holds.
	h := deploy(t, replica.ModeQuorum, int64(4))
	svc, _ := h.resolveService()
	c := h.caller()
	mustOK(t, c, svc, "open", "alice")
	mustOK(t, c, svc, "deposit", "alice", int64(1))

	h.nodes["m3"].Crash()

	for i := 0; i < 12; i++ {
		mustOK(t, c, svc, "deposit", "alice", int64(1))
	}
	if err := h.nodes["m3"].Restart(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the restarted follower to catch up", func() bool {
		return bankSeq(h.stores["m3"]) == bankSeq(h.stores["m1"])
	})
	if got := balance(t, c, svc, "alice"); got != 13 {
		t.Fatalf("balance = %d, want 13", got)
	}
	if s := h.stores["m1"].ReplStats(); s.CheckpointsShipped == 0 {
		t.Fatalf("catch-up used no checkpoint: %+v", s)
	}
}
