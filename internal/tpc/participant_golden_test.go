package tpc

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
	"repro/internal/guardian"
	"repro/internal/xrep"
)

// testdata/participant_parent.txt was recorded from the tree before the
// participant's rules moved into Participant, by running participantScript
// below against the participant guardian as it then was. It is data, not an
// expectation to regenerate: a mismatch means the participant's replies, its
// log bytes or its recovery moved.

// participantScript drives one slot participant through a fixed script —
// prepares that vote yes, commits, aborts of prepared transactions,
// duplicates of each, a crash and a recovery — and writes every reply and,
// after each stage, the resource's counts and the participant log's
// checkpoint and records in hex.
func participantScript(t *testing.T) []byte {
	t.Helper()
	w := guardian.NewWorld(guardian.Config{})
	defer w.Close()
	w.MustRegister(NewParticipantDef("slot_participant", func() Resource {
		return NewSlotResource(map[string]int64{"unit": 10})
	}))
	pn := w.MustAddNode("part")
	pc, err := pn.Bootstrap("slot_participant")
	if err != nil {
		t.Fatal(err)
	}
	dg, drv, err := w.MustAddNode("drv").NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	reply := dg.MustNewPort(CoordReplyType, 8)

	var out bytes.Buffer
	send := func(cmd, txid string, args ...any) {
		t.Helper()
		if err := drv.SendReplyTo(pc.Ports[0], reply.Name(), cmd, append([]any{txid}, args...)...); err != nil {
			t.Fatal(err)
		}
		m, st := drv.Receive(testTimeout, reply)
		if st != guardian.RecvOK {
			t.Fatalf("%s %s: receive status %v", cmd, txid, st)
		}
		fmt.Fprintf(&out, "%s %s -> %s %s\n", cmd, txid, m.Command, m.Str(0))
	}
	stage := func(name string) {
		t.Helper()
		// A duplicate prepare of tx1 logs nothing in any phase the script
		// leaves it in, and its reply orders the reads below after every
		// step the participant took (recovery included).
		send("prepare", "tx1", SlotOp("unit", 2))
		g, ok := pn.GuardianByID(pc.GuardianID)
		if !ok {
			t.Fatal("participant gone")
		}
		res, _ := ParticipantResource(g)
		slot := res.(*SlotResource)
		fmt.Fprintf(&out, "== %s: committed=%d held=%d\n", name, slot.Committed("unit"), slot.Held("unit"))
		cp, recs, err := g.Log().Recover()
		if err != nil && !errors.Is(err, durable.ErrNoCheckpoint) {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "cp %x\n", cp)
		for _, r := range recs {
			fmt.Fprintf(&out, "rec %d %x\n", r.Seq, r.Data)
		}
	}

	send("prepare", "tx1", SlotOp("unit", 2))
	send("prepare", "tx1", SlotOp("unit", 2))
	send("prepare", "tx2", SlotOp("unit", 3))
	send("prepare", "tx3", SlotOp("unit", 1))
	stage("prepared")
	send("commit", "tx1")
	send("commit", "tx1")
	send("abort", "tx2")
	send("abort", "tx2")
	send("prepare", "tx1", SlotOp("unit", 2))
	send("prepare", "tx2", SlotOp("unit", 3))
	stage("decided")
	pn.Crash()
	if err := pn.Restart(); err != nil {
		t.Fatal(err)
	}
	stage("recovered")
	send("prepare", "tx3", xrep.Null{})
	send("commit", "tx3")
	send("commit", "tx1")
	send("abort", "tx2")
	send("prepare", "tx4", SlotOp("unit", 4))
	send("abort", "tx4")
	send("abort", "tx4")
	stage("after")
	return out.Bytes()
}

// TestParticipantMatchesParentRecording: the script's replies, counts and
// log bytes are the parent's, byte for byte.
func TestParticipantMatchesParentRecording(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "participant_parent.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := participantScript(t); !bytes.Equal(got, want) {
		t.Fatalf("participant script diverged from the parent recording\n%s", firstDiff(got, want))
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
