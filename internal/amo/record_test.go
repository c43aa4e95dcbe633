package amo

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/durable"
	"repro/internal/vtime"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// marshalDedupRecTree is the encoder this package had before records were
// written field by field: build the amo/dedup record as a value tree and
// flatten it. It stays here as the reference appendDedupRec is held to.
func marshalDedupRecTree(t testing.TB, client string, seq, ack int64, c cached) []byte {
	t.Helper()
	args := c.args
	if args == nil {
		args = xrep.Seq{}
	}
	buf, err := wire.MarshalValue(xrep.Rec{Name: dedupLogRec, Fields: xrep.Seq{
		xrep.Str(client), xrep.Int(seq), xrep.Int(ack), xrep.Str(c.outcome), args,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestDedupRecordMatchesTree(t *testing.T) {
	long := strings.Repeat("x", 64<<10)
	nested := xrep.Seq{xrep.Str("a"), xrep.Seq{xrep.Int(-1), xrep.Null{}}, xrep.Bytes{0, 1},
		xrep.Rec{Name: "r", Fields: xrep.Seq{xrep.Bool(true), xrep.Real(1.5)}},
		xrep.PortName{Node: "n", Guardian: 2, Port: 3}, xrep.Token{Issuer: 7, Body: []byte("b"), Seal: []byte("s")}}
	cases := []struct {
		name     string
		client   string
		seq, ack int64
		c        cached
	}{
		{"nil args", "cli/1/1", 1, 0, cached{outcome: "ok"}},
		{"empty args", "cli/1/1", 2, 1, cached{outcome: "ok", args: xrep.Seq{}}},
		{"one int", "cli/1/1", 300, 299, cached{outcome: "balance_is", args: xrep.Seq{xrep.Int(42)}}},
		{"negative and wide ints", "c", -5, math.MinInt64, cached{outcome: "o", args: xrep.Seq{xrep.Int(1 << 40), xrep.Int(math.MaxInt64)}}},
		{"empty strings", "", 0, 0, cached{}},
		{"64 KiB strings", long, 1 << 33, 1<<33 - 1, cached{outcome: long, args: xrep.Seq{xrep.Str(long)}}},
		{"every value kind", "c", 9, 8, cached{outcome: "mixed", args: nested}},
	}
	for _, tc := range cases {
		want := marshalDedupRecTree(t, tc.client, tc.seq, tc.ack, tc.c)
		if got := appendDedupRec(nil, tc.client, tc.seq, tc.ack, tc.c); !bytes.Equal(got, want) {
			t.Errorf("%s: appendDedupRec wrote %d bytes that differ from the tree's %d", tc.name, len(got), len(want))
		}
		// Appending after a prefix leaves the prefix alone.
		if got := appendDedupRec([]byte("pre"), tc.client, tc.seq, tc.ack, tc.c); !bytes.Equal(got, append([]byte("pre"), want...)) {
			t.Errorf("%s: appending to a non-empty buffer differs", tc.name)
		}
	}
	prop := func(client, outcome, s string, seq, ack, n int64, withArgs bool) bool {
		c := cached{outcome: outcome}
		if withArgs {
			c.args = xrep.Seq{xrep.Str(s), xrep.Int(n), xrep.Seq{xrep.Int(seq)}}
		}
		return bytes.Equal(appendDedupRec(nil, client, seq, ack, c), marshalDedupRecTree(t, client, seq, ack, c))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestRecordEncodersAllocateNothing: once the scratch has grown to the
// record's size, encoding a dedup record allocates nothing — the log's own
// copy in Append is the only one left.
func TestRecordEncodersAllocateNothing(t *testing.T) {
	c := cached{outcome: "balance_is", args: xrep.Seq{xrep.Int(1 << 40)}}
	scratch := appendDedupRec(nil, "cli/1/1", 1000, 999, c)
	if n := testing.AllocsPerRun(200, func() {
		scratch = appendDedupRec(scratch[:0], "cli/1/1", 1000, 999, c)
	}); n != 0 {
		t.Errorf("encoding a dedup record into a warm scratch allocates %v times, want 0", n)
	}
}

// recoverFrom appends each record to a fresh in-memory log and recovers a
// new filter from it.
func recoverFrom(t testing.TB, records ...[]byte) (*Dedup, int, error) {
	t.Helper()
	log, err := durable.NewMem(vtime.NewReal(), durable.MemConfig{}).OpenLog("amo")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		log.Append(r)
	}
	log.Sync()
	d := NewDedup(DedupOptions{Log: log})
	n, err := d.Recover()
	return d, n, err
}

// TestRecoverRejectsMalformedDedupRecord: a record that carries this
// package's name but not its arity, or fields of the wrong kinds, is
// reported, by name, instead of panicking recovery or being folded as zero
// values; records of other names and shapes are still a neighbour's and
// skipped.
func TestRecoverRejectsMalformedDedupRecord(t *testing.T) {
	marshal := func(v xrep.Value) []byte {
		b, err := wire.MarshalValue(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	good := appendDedupRec(nil, "c", 1, 0, cached{outcome: "ok"})
	for i := 0; i < 5; i++ {
		fields := xrep.Seq{xrep.Str("c"), xrep.Int(2), xrep.Int(1), xrep.Str("ok"), xrep.Seq{}}
		fields[i] = xrep.Bool(true)
		_, n, err := recoverFrom(t, good, marshal(xrep.Rec{Name: dedupLogRec, Fields: fields}))
		if err == nil || !strings.Contains(err.Error(), dedupLogRec) || n != 1 {
			t.Errorf("field %d of the wrong kind: recovered %d, err %v; want 1 and an error naming %s", i, n, err, dedupLogRec)
		}
	}
	for _, fields := range []xrep.Seq{{xrep.Str("short")}, make(xrep.Seq, 6)} {
		_, n, err := recoverFrom(t, good, marshal(xrep.Rec{Name: dedupLogRec, Fields: fields}))
		if !errors.Is(err, xrep.ErrMalformed) || !strings.Contains(err.Error(), dedupLogRec) || n != 1 {
			t.Errorf("%d fields: recovered %d, err %v; want 1 and an error naming %s", len(fields), n, err, dedupLogRec)
		}
	}
	d, n, err := recoverFrom(t,
		marshal(xrep.Rec{Name: "bank/other", Fields: make(xrep.Seq, 5)}),
		marshal(xrep.Seq{xrep.Str("deposit"), xrep.Str("a"), xrep.Int(1), xrep.Str("")}),
		good)
	if err != nil || n != 1 || d.Cached("c") != 1 {
		t.Errorf("foreign records: recovered %d (cached %d), err %v; want 1, 1, nil", n, d.Cached("c"), err)
	}
}

// FuzzDedupRecord appends arbitrary bytes to a log as one record: Recover
// must refuse or skip them, never panic. The same bytes, read as the fields
// of a record, must come back from encode → append → Recover as the cached
// reply they describe.
func FuzzDedupRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, err := recoverFrom(t, data); err != nil && !strings.Contains(err.Error(), "amo: recover dedup record 1") {
			t.Fatalf("error does not name the record: %v", err)
		}

		cut := func() string {
			if len(data) == 0 {
				return ""
			}
			n := min(int(data[0])%9, len(data)-1)
			s := string(data[1 : 1+n])
			data = data[1+n:]
			return s
		}
		client, outcome, arg := cut(), cut(), cut()
		seq := int64(len(data))*7919 + 1
		c := cached{outcome: outcome, args: xrep.Seq{xrep.Str(arg), xrep.Int(-seq)}}
		rec := appendDedupRec(nil, client, seq, seq-1, c)
		if !bytes.Equal(rec, marshalDedupRecTree(t, client, seq, seq-1, c)) {
			t.Fatal("appendDedupRec differs from the tree encoding")
		}
		d, n, err := recoverFrom(t, rec)
		if err != nil || n != 1 {
			t.Fatalf("recovering an encoded record: %d, %v", n, err)
		}
		got, ok := d.sessions[client].replies[seq]
		if !ok || got.outcome != outcome || !xrep.Equal(got.args, c.args) || d.sessions[client].pruned != seq-1 {
			t.Fatalf("recovered %+v (pruned %d), want %+v (pruned %d)", got, d.sessions[client].pruned, c, seq-1)
		}
	})
}
