package bank

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/durable"
	"repro/internal/guardian"
	"repro/internal/ring"
	"repro/internal/tpc"
)

// testdata/handoff_parent.txt was recorded from the tree before the handoff
// became one step (the pre-cut copy, tail journal and pull generations
// removed), by running handoffScript below against the branches as they
// then were. It is data, not an expectation to regenerate: a mismatch means
// the handoff's replies, a branch's log or checkpoint bytes, or its
// recovery moved.

// handoffScript drives three shard branches, each checkpointing every three
// mutating messages, through a fixed join: s3 takes a range from s1 while a
// prepared escrow debit pins it (a deposit and the commit land before the
// cut), then a range from s2; both sources are acked, a crash and recovery
// of the source and the destination follow, a repeated pull and ack of an
// installed handoff, and traffic on the moved accounts. It writes every
// reply and, after each stage, each branch's balances, checkpoint and
// records in hex.
func handoffScript(t *testing.T) []byte {
	t.Helper()
	w := guardian.NewWorld(guardian.Config{})
	defer w.Close()
	w.MustRegister(BranchDef())
	names := []string{"s1", "s2", "s3"}
	nodes := make(map[string]*guardian.Node)
	created := make(map[string]*guardian.Created)
	members := make(map[string]ring.Member)
	for _, s := range names {
		n := w.MustAddNode(s)
		cr, err := n.Bootstrap(BranchDefName, 3, ShardArg(s))
		if err != nil {
			t.Fatal(err)
		}
		nodes[s], created[s] = n, cr
		members[s] = ring.Member{Name: s, Native: cr.Ports[0], Amo: cr.Ports[1]}
	}
	c := newClient(t, w.MustAddNode("drv"))
	ctlPort := c.proc.Guardian().MustNewPort(MigrateReplyType, 8)
	votes := c.proc.Guardian().MustNewPort(tpc.CoordReplyType, 8)

	var out bytes.Buffer
	op := func(s, cmd string, args ...any) {
		t.Helper()
		m := c.call(t, members[s].Native, cmd, args...)
		fmt.Fprintf(&out, "%s %s %v -> %s %v\n", s, cmd, args, m.Command, m.Args)
	}
	recv := func(what string, p *guardian.Port) *guardian.Message {
		t.Helper()
		m, st := c.proc.Receive(testTimeout, p)
		if st != guardian.RecvOK {
			t.Fatalf("%s: receive status %v", what, st)
		}
		return m
	}
	ctl := func(s, cmd string, args ...any) *guardian.Message {
		t.Helper()
		if err := c.proc.SendReplyTo(members[s].Native, ctlPort.Name(), cmd, args...); err != nil {
			t.Fatal(err)
		}
		return recv(cmd, ctlPort)
	}
	step := func(s, cmd, txid string, args ...any) {
		t.Helper()
		if err := c.proc.SendReplyTo(members[s].Native, votes.Name(), cmd, append([]any{txid}, args...)...); err != nil {
			t.Fatal(err)
		}
		m := recv(cmd, votes)
		fmt.Fprintf(&out, "%s %s %s -> %s %s\n", s, cmd, txid, m.Command, m.Str(0))
	}
	// move pulls one range into its destination and acks its source once
	// the destination reports it installed.
	move := func(r *ring.Ring, from, to string) {
		t.Helper()
		hid := HandoffID(r.Name, r.Epoch, from, to)
		m := ctl(to, "handoff_pull", hid, string(r.Marshal()), members[from].Native)
		fmt.Fprintf(&out, "pull %s -> %s\n", hid, m.Command)
		for i := 0; ; i++ {
			if ctl(to, "handoff_status", hid).Str(0) == "installed" {
				break
			}
			if i > 2000 || !c.proc.Pause(testTimeout/1000) {
				t.Fatalf("handoff %s never installed", hid)
			}
		}
		fmt.Fprintf(&out, "ack %s -> %s\n", hid, ctl(from, "migrate_ack", hid).Command)
	}
	stage := func(name string) {
		t.Helper()
		for _, s := range names {
			// The status query orders the reads below after every step the
			// branch took (recovery included).
			ctl(s, "handoff_status", "probe")
			g, ok := nodes[s].GuardianByID(created[s].GuardianID)
			if !ok {
				t.Fatalf("branch %s gone", s)
			}
			_, epoch, accts, _ := ShardSnapshot(g)
			keys := make([]string, 0, len(accts))
			for a := range accts {
				keys = append(keys, a)
			}
			sort.Strings(keys)
			fmt.Fprintf(&out, "== %s %s epoch %d:", name, s, epoch)
			for _, a := range keys {
				fmt.Fprintf(&out, " %s=%d", a, accts[a])
			}
			fmt.Fprintln(&out)
			cp, recs, err := g.Log().Recover()
			if err != nil && !errors.Is(err, durable.ErrNoCheckpoint) {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "cp %x\n", cp)
			for _, r := range recs {
				fmt.Fprintf(&out, "rec %d %x\n", r.Seq, r.Data)
			}
		}
	}

	r1 := ring.New("accounts", 0, members["s1"], members["s2"])
	r2, err := r1.WithJoin(members["s3"])
	if err != nil {
		t.Fatal(err)
	}
	// Two accounts per (owner at epoch 1, owner at epoch 2) pair.
	var accounts []string
	perPair := map[[2]string]int{}
	for i := 0; len(accounts) < 8 && i < 10000; i++ {
		a := fmt.Sprintf("h-%04d", i)
		o1, _ := r1.Owner(a)
		o2, _ := r2.Owner(a)
		if k := [2]string{o1.Name, o2.Name}; perPair[k] < 2 {
			perPair[k]++
			accounts = append(accounts, a)
		}
	}
	sort.Strings(accounts)
	owner := func(r *ring.Ring, a string) string { m, _ := r.Owner(a); return m.Name }
	var moving string // an s1 account that moves to s3
	for _, a := range accounts {
		if owner(r1, a) == "s1" && owner(r2, a) == "s3" && moving == "" {
			moving = a
		}
	}
	if moving == "" {
		t.Fatalf("no account moves s1>s3 among %v", accounts)
	}

	for _, s := range []string{"s1", "s2"} {
		fmt.Fprintf(&out, "%s ring_update -> %v\n", s, ctl(s, "ring_update", string(r1.Marshal())).Args)
	}
	for i, a := range accounts {
		op(owner(r1, a), "open", a)
		op(owner(r1, a), "deposit", a, int64(10*(i+1)), "d-"+a)
	}
	stage("epoch1")

	// A prepared debit pins the s1>s3 range: the cut waits for its commit,
	// and a deposit made meanwhile must reach the destination too.
	step("s1", "prepare", "tx1", EscrowOp("debit", moving, 7))
	hid := HandoffID(r2.Name, r2.Epoch, "s1", "s3")
	fmt.Fprintf(&out, "pull %s -> %s\n", hid, ctl("s3", "handoff_pull", hid, string(r2.Marshal()), members["s1"].Native).Command)
	op("s1", "deposit", moving, int64(3), "late")
	step("s1", "commit", "tx1")
	move(r2, "s1", "s3")
	move(r2, "s2", "s3")
	for _, s := range names {
		fmt.Fprintf(&out, "%s ring_update -> %v\n", s, ctl(s, "ring_update", string(r2.Marshal())).Args)
	}
	stage("moved")

	for _, s := range []string{"s1", "s3"} {
		nodes[s].Crash()
		if err := nodes[s].Restart(); err != nil {
			t.Fatal(err)
		}
	}
	stage("recovered")

	move(r2, "s1", "s3")
	for _, a := range accounts {
		if owner(r2, a) == "s3" {
			op("s3", "deposit", a, int64(1), "post-"+a)
		}
	}
	all := c.call(t, members["s3"].Native, "balance", moving).Int(0)
	op("s3", "withdraw", moving, all, "drain")
	op("s1", "balance", moving)
	stage("after")
	return out.Bytes()
}

// TestHandoffMatchesParentRecording: the script's replies, balances and log
// and checkpoint bytes are the parent's, byte for byte.
func TestHandoffMatchesParentRecording(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "handoff_parent.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := handoffScript(t); !bytes.Equal(got, want) {
		t.Fatalf("handoff script diverged from the parent recording\n%s", firstDiff(got, want))
	}
}
