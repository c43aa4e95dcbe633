package tpc

import (
	"bytes"
	"runtime"
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
			v, err := wire.UnmarshalValue(want)
			if err != nil {
				t.Fatal(err)
			}
			gotKind, back, err := readDecision(v)
			if err != nil || gotKind != kind || back.txid != d.txid || back.commit != d.commit || len(back.ops) != len(d.ops) {
				t.Errorf("readDecision did not return what was encoded for %s/%.10q", kind, d.txid)
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

// TestFoldersRefuseMalformedRecords: a coordinator or participant record
// with a field of the wrong kind, the wrong arity, an unreadable op pair or
// an unknown kind is an error, never folded as zero values (the parent
// skipped an ill-typed decision and replayed an ill-typed participant record
// as kind "" / txid "").
func TestFoldersRefuseMalformedRecords(t *testing.T) {
	p := xrep.PortName{Node: "s1", Guardian: 2, Port: 1}
	decided := xrep.Seq{xrep.Str("decided"), xrep.Str("tx1"), xrep.Bool(true), xrep.Seq{xrep.Seq{p, SlotOp("unit", 1)}}}
	participant := xrep.Seq{xrep.Str("prepared"), xrep.Str("tx1"), SlotOp("unit", 1)}
	newCoord := func() *coordState { return &coordState{decisions: make(map[string]*decision)} }
	newPart := func() *Participant { return NewParticipant(NewSlotResource(map[string]int64{"unit": 5})) }
	if mine, err := newCoord().foldDecision(decided); !mine || err != nil {
		t.Fatalf("well-formed decision: %v %v", mine, err)
	}
	if mine, err := newPart().foldRecord(participant); !mine || err != nil {
		t.Fatalf("well-formed participant record: %v %v", mine, err)
	}
	// A no vote was logged as "refused" before refusals went unlogged; such
	// a record still folds, as an abort, which answers every message alike.
	legacy := newPart()
	if mine, err := legacy.foldRecord(xrep.Seq{xrep.Str("refused"), xrep.Str("tx1"), xrep.Null{}}); !mine || err != nil {
		t.Fatalf("legacy refused record: %v %v", mine, err)
	}
	if phase, _ := legacy.Txn("tx1"); phase != "aborted" {
		t.Fatalf("a legacy refused record folds as %q, want aborted", phase)
	}
	mutants := func(good xrep.Seq, typed int) []xrep.Value {
		out := []xrep.Value{good[:len(good)-1], append(append(xrep.Seq{}, good...), xrep.Int(0)), xrep.Rec{Name: "tpc/x", Fields: good}, xrep.Int(1)}
		for i := 0; i < typed; i++ {
			bad := append(xrep.Seq{}, good...)
			bad[i] = xrep.Int(7)
			out = append(out, bad)
		}
		unknown := append(xrep.Seq{}, good...)
		unknown[0] = xrep.Str("undecided")
		return append(out, unknown)
	}
	for _, v := range append(mutants(decided, 4),
		xrep.Seq{decided[0], decided[1], decided[2], xrep.Seq{xrep.Seq{xrep.Str("not a port"), SlotOp("unit", 1)}}},
		xrep.Seq{decided[0], decided[1], decided[2], xrep.Seq{xrep.Seq{p}}}) {
		st := newCoord()
		if mine, err := st.foldDecision(v); !mine || err == nil || len(st.decisions) != 0 {
			t.Errorf("decision %s: mine %v, err %v, %d decisions; want refused", v, mine, err, len(st.decisions))
		}
	}
	for _, v := range mutants(participant, 2) {
		st := newPart()
		if mine, err := st.foldRecord(v); !mine || err == nil || len(st.txns) != 0 {
			t.Errorf("participant record %s: mine %v, err %v, %d phases; want refused", v, mine, err, len(st.txns))
		}
	}
}

// FuzzTPCRecords feeds hostile bytes to both tpc folders. Neither may
// panic or allocate beyond a bound set by the input's length; a record a
// folder accepts has the kinds the encoders write; and what it read,
// re-encoded, reads back the same.
func FuzzTPCRecords(f *testing.F) {
	p := xrep.PortName{Node: "s1", Guardian: 2, Port: 1}
	d := &decision{txid: "cli/tx1", commit: true, ops: []txOp{{p, SlotOp("unit", 2)}, {p, xrep.Null{}}}}
	f.Add(appendDecisionRecord(nil, "decided", d))
	f.Add(appendDecisionRecord(nil, "settled", &decision{txid: "cli/tx1"}))
	f.Add(appendParticipantRecord(nil, "prepared", "cli/tx1", SlotOp("unit", 2)))
	f.Add(appendParticipantRecord(nil, "refused", "cli/tx1", nil))
	for _, bad := range []xrep.Value{
		xrep.Seq{xrep.Str("decided"), xrep.Int(1), xrep.Bool(true), xrep.Seq{}},
		xrep.Seq{xrep.Str("decided"), xrep.Str("tx"), xrep.Bool(true), xrep.Seq{xrep.Seq{xrep.Str("p"), xrep.Null{}}}},
		xrep.Seq{xrep.Int(1), xrep.Str("tx"), xrep.Null{}},
		xrep.Seq{xrep.Str("prepared"), xrep.Str("tx")},
	} {
		b, err := wire.MarshalValue(bad)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	// The tombstone an abort of an unknown transaction leaves.
	f.Add(appendParticipantRecord(nil, "aborted", "cli/tx9", nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := wire.UnmarshalValue(data)
		if err != nil {
			return
		}
		coord := &coordState{decisions: make(map[string]*decision)}
		_, coordErr := coord.foldDecision(v)
		part := NewParticipant(NewSlotResource(map[string]int64{"unit": 5}))
		_, partErr := part.foldRecord(v)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10+256*uint64(len(data)) {
			t.Fatalf("folding %d bytes allocated %d", len(data), n)
		}
		if coordErr == nil && partErr == nil {
			t.Fatal("the same record read as a decision and as a participant record")
		}
		seq, _ := v.(xrep.Seq)
		if coordErr == nil {
			kind, d, err := readDecision(v)
			if err != nil || seq[0].Kind() != xrep.KindString || seq[1].Kind() != xrep.KindString || seq[2].Kind() != xrep.KindBool {
				t.Fatalf("foldDecision accepted %s (%v)", v, err)
			}
			again, err := wire.UnmarshalValue(appendDecisionRecord(nil, kind, d))
			if err != nil || !xrep.Equal(again, v) {
				t.Fatalf("an accepted decision does not survive encode → decode: %v", err)
			}
		}
		if partErr == nil {
			if len(seq) != 3 || seq[0].Kind() != xrep.KindString || seq[1].Kind() != xrep.KindString {
				t.Fatalf("foldRecord accepted %s", v)
			}
			again, err := wire.UnmarshalValue(appendParticipantRecord(nil, string(seq[0].(xrep.Str)), string(seq[1].(xrep.Str)), seq[2]))
			if err != nil || !xrep.Equal(again, v) {
				t.Fatalf("an accepted participant record does not survive encode → decode: %v", err)
			}
		}
	})
}
