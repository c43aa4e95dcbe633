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
	"repro/internal/tpc"
)

// testdata/escrow_parent.txt was recorded from the tree before the shard's
// escrow arms became a tpc.Participant, by running escrowScript below
// against the branch as it then was. It is data, not an expectation to
// regenerate: a mismatch means the escrow's replies, the branch's log or
// checkpoint bytes, or its recovery moved.

// escrowScript drives one shard branch, checkpointing every three mutating
// messages, through a fixed script of native ops and escrow steps —
// prepares that vote yes and one that votes no, commits, aborts of prepared
// transactions, duplicates of each, a crash and a recovery — and writes
// every reply and, after each stage, the balances and the branch log's
// checkpoint and records in hex.
func escrowScript(t *testing.T) []byte {
	t.Helper()
	w := guardian.NewWorld(guardian.Config{})
	defer w.Close()
	w.MustRegister(BranchDef())
	bn := w.MustAddNode("s1")
	cr, err := bn.Bootstrap(BranchDefName, 3, ShardArg("s1"))
	if err != nil {
		t.Fatal(err)
	}
	native := cr.Ports[0]
	c := newClient(t, w.MustAddNode("drv"))
	votes := c.proc.Guardian().MustNewPort(tpc.CoordReplyType, 8)

	var out bytes.Buffer
	op := func(cmd string, args ...any) {
		t.Helper()
		m := c.call(t, native, cmd, args...)
		fmt.Fprintf(&out, "%s %v -> %s\n", cmd, args, m.Command)
	}
	step := func(cmd, txid string, args ...any) {
		t.Helper()
		if err := c.proc.SendReplyTo(native, votes.Name(), cmd, append([]any{txid}, args...)...); err != nil {
			t.Fatal(err)
		}
		m, st := c.proc.Receive(testTimeout, votes)
		if st != guardian.RecvOK {
			t.Fatalf("%s %s: receive status %v", cmd, txid, st)
		}
		fmt.Fprintf(&out, "%s %s -> %s %s\n", cmd, txid, m.Command, m.Str(0))
	}
	stage := func(name string) {
		t.Helper()
		// The native balance query orders the reads below after every
		// step the branch took (recovery included).
		op("balance", "a")
		g, ok := bn.GuardianByID(cr.GuardianID)
		if !ok {
			t.Fatal("branch gone")
		}
		accts, err := Snapshot(g)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(accts))
		for a := range accts {
			names = append(names, a)
		}
		sort.Strings(names)
		fmt.Fprintf(&out, "== %s:", name)
		for _, a := range names {
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

	op("open", "a")
	op("open", "b")
	op("deposit", "a", int64(100), "d1")
	op("deposit", "b", int64(50), "d2")
	step("prepare", "tx1", EscrowOp("debit", "a", 30))
	step("prepare", "tx1", EscrowOp("debit", "a", 30))
	step("prepare", "tx2", EscrowOp("credit", "b", 20))
	step("prepare", "tx3", EscrowOp("debit", "a", 60))
	step("prepare", "tx9", EscrowOp("debit", "a", 11))
	op("withdraw", "a", int64(20), "w1")
	stage("prepared")
	step("commit", "tx1")
	step("commit", "tx1")
	step("abort", "tx3")
	step("abort", "tx3")
	step("prepare", "tx1", EscrowOp("debit", "a", 30))
	step("prepare", "tx3", EscrowOp("debit", "a", 60))
	op("deposit", "a", int64(5), "d3")
	op("deposit", "b", int64(1), "d4")
	stage("decided")
	bn.Crash()
	if err := bn.Restart(); err != nil {
		t.Fatal(err)
	}
	stage("recovered")
	step("prepare", "tx2", EscrowOp("credit", "b", 20))
	step("commit", "tx2")
	step("commit", "tx2")
	step("prepare", "tx4", EscrowOp("debit", "b", 70))
	op("withdraw", "b", int64(2), "w2")
	step("abort", "tx4")
	op("deposit", "b", int64(3), "d5")
	op("deposit", "a", int64(1), "d6")
	stage("after")
	return out.Bytes()
}

// TestEscrowMatchesParentRecording: the script's replies, balances and log
// and checkpoint bytes are the parent's, byte for byte.
func TestEscrowMatchesParentRecording(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "escrow_parent.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := escrowScript(t); !bytes.Equal(got, want) {
		t.Fatalf("escrow script diverged from the parent recording\n%s", firstDiff(got, want))
	}
}

func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
