package tpc

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/wire"
	"repro/internal/xrep"
)

// participantRecordTree and decisionRecordTree are the encoders this
// package had before records were written field by field: build the value
// tree, flatten it. They stay here as the reference the append encoders
// are held to.
func participantRecordTree(t testing.TB, kind, txid string, op xrep.Value) []byte {
	t.Helper()
	if op == nil {
		op = xrep.Null{}
	}
	b, err := wire.MarshalValue(xrep.Seq{xrep.Str(kind), xrep.Str(txid), op})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func decisionRecordTree(t testing.TB, kind string, d *decision) []byte {
	t.Helper()
	ops := make(xrep.Seq, len(d.ops))
	for i, o := range d.ops {
		ops[i] = xrep.Seq{o.participant, o.op}
	}
	b, err := wire.MarshalValue(xrep.Seq{xrep.Str(kind), xrep.Str(d.txid), xrep.Bool(d.commit), ops})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRecordsMatchTree(t *testing.T) {
	long := strings.Repeat("t", 64<<10)
	debit := xrep.Seq{xrep.Str("debit"), xrep.Str("a0000001"), xrep.Int(1 << 40)}
	for _, tc := range []struct {
		kind, txid string
		op         xrep.Value
	}{
		{"prepared", "cli/tx1", debit},
		{"committed", "cli/tx1", nil},
		{"refused", "", xrep.Null{}},
		{"aborted", long, xrep.Rec{Name: "op", Fields: xrep.Seq{xrep.Int(-1), xrep.Str("")}}},
	} {
		if got, want := appendParticipantRecord(nil, tc.kind, tc.txid, tc.op), participantRecordTree(t, tc.kind, tc.txid, tc.op); !bytes.Equal(got, want) {
			t.Errorf("participant record %s/%.10q differs from the tree encoding", tc.kind, tc.txid)
		}
	}
	p1 := xrep.PortName{Node: "s1", Guardian: 2, Port: 1}
	p2 := xrep.PortName{Node: long, Guardian: 1 << 40, Port: 1<<63 + 5}
	for _, d := range []*decision{
		{txid: "cli/tx1", commit: true, ops: []txOp{{p1, debit}, {p2, xrep.Seq{xrep.Str("credit"), xrep.Str("b"), xrep.Int(-7)}}}},
		{txid: "", commit: false},
		{txid: long, commit: false, ops: []txOp{{xrep.PortName{}, xrep.Null{}}}},
	} {
		for _, kind := range []string{"decided", "settled"} {
			want := decisionRecordTree(t, kind, d)
			if got := appendDecisionRecord(nil, kind, d); !bytes.Equal(got, want) {
				t.Errorf("decision record %s/%.10q differs from the tree encoding", kind, d.txid)
			}
			gotKind, back, ok := parseDecisionRecord(want)
			if !ok || gotKind != kind || back.txid != d.txid || back.commit != d.commit || len(back.ops) != len(d.ops) {
				t.Errorf("parseDecisionRecord did not return what was encoded for %s/%.10q", kind, d.txid)
			}
		}
	}
	prop := func(kind, txid, node, s string, commit bool, g, p uint64, n int64) bool {
		op := xrep.Seq{xrep.Str(s), xrep.Int(n)}
		d := &decision{txid: txid, commit: commit, ops: []txOp{{xrep.PortName{Node: node, Guardian: g, Port: p}, op}}}
		return bytes.Equal(appendParticipantRecord(nil, kind, txid, op), participantRecordTree(t, kind, txid, op)) &&
			bytes.Equal(appendDecisionRecord(nil, kind, d), decisionRecordTree(t, kind, d))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestRecordEncodersAllocateNothing: both records, encoded into a scratch
// that has grown to their size, allocate nothing.
func TestRecordEncodersAllocateNothing(t *testing.T) {
	var op xrep.Value = xrep.Seq{xrep.Str("debit"), xrep.Str("a0000001"), xrep.Int(1 << 40)}
	d := &decision{txid: "cli/tx1", commit: true, ops: []txOp{{xrep.PortName{Node: "s1", Guardian: 2, Port: 1}, op}}}
	scratch := appendDecisionRecord(nil, "decided", d)
	if n := testing.AllocsPerRun(200, func() {
		scratch = appendParticipantRecord(scratch[:0], "prepared", d.txid, op)
		scratch = appendDecisionRecord(scratch[:0], "decided", d)
	}); n != 0 {
		t.Errorf("encoding tpc records into a warm scratch allocates %v times, want 0", n)
	}
}
