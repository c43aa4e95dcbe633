package bank

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ring"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// shardRecordKinds is the schema of every bank/* log record: what the live
// arms write and what fold must insist on. The install record's last field
// is the source's dedup snapshot, whose reading is amo's.
var shardRecordKinds = map[string][]xrep.Kind{
	ringRec:     {xrep.KindString},
	seedRec:     {xrep.KindString, xrep.KindInt, xrep.KindInt, xrep.KindString},
	movedOutRec: {xrep.KindString, xrep.KindString, xrep.KindString, xrep.KindSeq},
	installRec:  {xrep.KindString, xrep.KindString, xrep.KindSeq, xrep.KindNull},
	ackedRec:    {xrep.KindString},
	tpcRec:      {xrep.KindString, xrep.KindString, xrep.KindString, xrep.KindString, xrep.KindInt},
}

// goodShardRecords is one well-formed record of every name, as the arms
// build them.
func goodShardRecords() []xrep.Rec {
	blob := xrep.Str(ring.New("accounts", 0, ring.Member{Name: "s1"}, ring.Member{Name: "s2"}).Marshal())
	accounts := accountsSeq(map[string]int64{"a": 57, "b": -3})
	return []xrep.Rec{
		{Name: ringRec, Fields: xrep.Seq{blob}},
		{Name: seedRec, Fields: xrep.Seq{xrep.Str("acct"), xrep.Int(3), xrep.Int(100), xrep.Str("s1")}},
		{Name: movedOutRec, Fields: xrep.Seq{xrep.Str("h1"), xrep.Str("s2"), blob, accounts}},
		{Name: installRec, Fields: xrep.Seq{xrep.Str("h2"), blob, accounts, xrep.Seq{}}},
		{Name: ackedRec, Fields: xrep.Seq{xrep.Str("h1")}},
		{Name: tpcRec, Fields: xrep.Seq{xrep.Str("prepared"), xrep.Str("tx1"), xrep.Str("debit"), xrep.Str("a"), xrep.Int(5)}},
	}
}

func freshShard() (*shardCore, *branchState) {
	st := &branchState{accounts: map[string]int64{"a": 10}, applied: map[string]string{}}
	return newShardCore("s1", st, nil), st
}

// TestShardFoldRefusesMalformedRecords: a record that bears a bank/* name
// and does not read as what the arms write — a field of the wrong kind, a
// field missing or surplus, a ring blob that does not parse, an unknown
// escrow phase — is an error that leaves the state untouched, never folded
// as zero values; a value that is not a shard record is not fold's.
func TestShardFoldRefusesMalformedRecords(t *testing.T) {
	untouched := func(what string, c *shardCore, st *branchState) {
		t.Helper()
		fc, fst := freshShard()
		if !reflect.DeepEqual(c, fc) || !reflect.DeepEqual(st.accounts, fst.accounts) || len(st.holds) != 0 {
			t.Errorf("%s: a refused record changed the state", what)
		}
	}
	for _, good := range goodShardRecords() {
		c, _ := freshShard()
		if mine, err := c.fold(good); !mine || err != nil {
			t.Fatalf("%s: a well-formed record was refused: mine %v, %v", good.Name, mine, err)
		}
		for i := range good.Fields {
			bad := xrep.Rec{Name: good.Name, Fields: append(xrep.Seq{}, good.Fields...)}
			bad.Fields[i] = xrep.Bool(true)
			if shardRecordKinds[good.Name][i] == xrep.KindNull {
				continue // the dedup snapshot: any value folds, amo reads it
			}
			c, st := freshShard()
			if mine, err := c.fold(bad); !mine || !errors.Is(err, xrep.ErrMalformed) {
				t.Errorf("%s with field %d a bool: mine %v, err %v; want mine and ErrMalformed", good.Name, i, mine, err)
			}
			untouched(good.Name, c, st)
		}
		for _, fields := range []xrep.Seq{good.Fields[:len(good.Fields)-1], append(append(xrep.Seq{}, good.Fields...), xrep.Int(0))} {
			c, st := freshShard()
			if mine, err := c.fold(xrep.Rec{Name: good.Name, Fields: fields}); !mine || !errors.Is(err, xrep.ErrMalformed) {
				t.Errorf("%s with %d fields: mine %v, err %v; want mine and ErrMalformed", good.Name, len(fields), mine, err)
			}
			untouched(good.Name, c, st)
		}
	}
	for name, rec := range map[string]xrep.Rec{
		"ring blob":       {Name: ringRec, Fields: xrep.Seq{xrep.Str("not a ring")}},
		"moved_out blob":  {Name: movedOutRec, Fields: xrep.Seq{xrep.Str("h"), xrep.Str("s2"), xrep.Str(""), xrep.Seq{}}},
		"install blob":    {Name: installRec, Fields: xrep.Seq{xrep.Str("h"), xrep.Str("\x00"), xrep.Seq{}, xrep.Seq{}}},
		"account entry":   {Name: installRec, Fields: xrep.Seq{xrep.Str("h"), goodShardRecords()[0].Fields[0], xrep.Seq{xrep.Seq{xrep.Int(1), xrep.Str("a")}}, xrep.Seq{}}},
		"unknown phase":   {Name: tpcRec, Fields: xrep.Seq{xrep.Str("decided"), xrep.Str("tx"), xrep.Str(""), xrep.Str(""), xrep.Int(0)}},
		"hostile vnodes":  {Name: ringRec, Fields: xrep.Seq{xrep.Str(hostileRing(t))}},
		"nested not pair": {Name: movedOutRec, Fields: xrep.Seq{xrep.Str("h"), xrep.Str("s2"), goodShardRecords()[0].Fields[0], xrep.Seq{xrep.Str("a")}}},
		"seed over cap":   {Name: seedRec, Fields: overCapSeed},
	} {
		c, st := freshShard()
		if mine, err := c.fold(rec); !mine || err == nil {
			t.Errorf("%s: mine %v, err %v; want mine and an error", name, mine, err)
		}
		untouched(name, c, st)
	}
	for _, v := range []xrep.Value{
		xrep.Seq{xrep.Str("deposit"), xrep.Str("a"), xrep.Int(1), xrep.Str("")},
		xrep.Rec{Name: "amo/dedup", Fields: xrep.Seq{xrep.Bool(true)}},
		xrep.Int(7), xrep.Null{},
	} {
		c, _ := freshShard()
		if mine, err := c.fold(v); mine || err != nil {
			t.Errorf("%s: mine %v, err %v; want not mine", v, mine, err)
		}
	}
	// The op folder claims every sequence, and only sequences.
	_, st := freshShard()
	if mine, err := st.foldOp(xrep.Seq{xrep.Str("deposit"), xrep.Int(1), xrep.Int(1), xrep.Str("")}); !mine || !errors.Is(err, xrep.ErrMalformed) {
		t.Errorf("ill-typed op record: mine %v, err %v", mine, err)
	}
	if mine, err := st.foldOp(goodShardRecords()[0]); mine || err != nil {
		t.Errorf("a record offered to the op folder: mine %v, err %v", mine, err)
	}
}

// TestEscrowRecordMatchesTree: the escrow step logEscrow writes field by
// field is the bytes the tree encoding of its bank/tpc record was, for a
// prepare's op and for the steps that carry none; it folds back to the
// participant row the live step left; and it allocates nothing into a warm
// scratch.
func TestEscrowRecordMatchesTree(t *testing.T) {
	long := strings.Repeat("t", 64<<10)
	for _, tc := range []struct {
		step, txid, kind, acct string
		amount                 int64
	}{
		{"prepared", "cli/tx1", "debit", "a", 5},
		{"prepared", long, "credit", long, 1<<62 + 3},
		{"committed", "cli/tx1", "", "", 0},
		{"aborted", "cli/tx9", "", "", 0},
	} {
		var op xrep.Value
		if tc.kind != "" {
			op = EscrowOp(tc.kind, tc.acct, tc.amount)
		}
		want, err := wire.MarshalValue(xrep.Rec{Name: tpcRec, Fields: xrep.Seq{
			xrep.Str(tc.step), xrep.Str(tc.txid), xrep.Str(tc.kind), xrep.Str(tc.acct), xrep.Int(tc.amount),
		}})
		if err != nil {
			t.Fatal(err)
		}
		got := appendEscrowRecord(nil, tc.step, tc.txid, op)
		if !bytes.Equal(got, want) {
			t.Errorf("%s %.10q: the escrow record differs from the tree encoding", tc.step, tc.txid)
		}
		v, err := wire.UnmarshalValue(got)
		if err != nil {
			t.Fatal(err)
		}
		live, _ := freshShard()
		folded, _ := freshShard()
		if tc.step != "prepared" { // a decision on a transaction each holds
			for _, c := range []*shardCore{live, folded} {
				if err := c.escrow.Apply("prepared", tc.txid, EscrowOp("debit", "a", 1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := live.escrow.Apply(tc.step, tc.txid, op); err != nil {
			t.Fatal(err)
		}
		if mine, err := folded.fold(v); !mine || err != nil {
			t.Fatalf("%s: fold refused the escrow record: %v %v", tc.step, mine, err)
		}
		if !reflect.DeepEqual(live.st, folded.st) || !reflect.DeepEqual(live.escrow, folded.escrow) {
			t.Errorf("%s %.10q: the folded record leaves another state than the live step", tc.step, tc.txid)
		}
	}
	op := EscrowOp("debit", "a0000001", 1<<40)
	scratch := appendEscrowRecord(nil, "prepared", "cli/tx1", op)
	if n := testing.AllocsPerRun(200, func() {
		scratch = appendEscrowRecord(scratch[:0], "prepared", "cli/tx1", op)
		scratch = appendEscrowRecord(scratch[:0], "committed", "cli/tx1", nil)
	}); n != 0 {
		t.Errorf("encoding escrow records into a warm scratch allocates %v times, want 0", n)
	}
}

// overCapSeed is a seed asking for a billion accounts.
var overCapSeed = xrep.Seq{xrep.Str("acct"), xrep.Int(1 << 30), xrep.Int(100), xrep.Str("s1")}

// hostileRing is a well-formed ring blob asking for a billion virtual nodes.
func hostileRing(t testing.TB) string {
	t.Helper()
	r := ring.New("accounts", 0, ring.Member{Name: "s1"})
	v := r.Value().(xrep.Rec)
	v.Fields[2] = xrep.Int(1 << 30)
	b, err := wire.MarshalValue(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// FuzzShardRecords feeds hostile bytes to the shard half of a branch's
// recovery: fold over every bank/* record name, and the checkpoint's shard
// state through decodeCheckpoint and restoreCheckpoint. Neither may panic or
// allocate beyond a bound set by the input's length (a ring's point table is
// members × vnodes, both bounded, and the members come out of the input);
// a record fold accepts has exactly the schema's kinds — an ill-typed field
// is refused, not zero-filled; and what the encoders write from the
// accepted state reads back to the same state.
func FuzzShardRecords(f *testing.F) {
	for _, rec := range goodShardRecords() {
		f.Add(shardRecord(rec.Name, rec.Fields))
		for i := range rec.Fields {
			bad := append(xrep.Seq{}, rec.Fields...)
			bad[i] = xrep.Bool(true)
			f.Add(shardRecord(rec.Name, bad))
		}
		f.Add(shardRecord(rec.Name, rec.Fields[1:]))
	}
	f.Add(shardRecord(ringRec, xrep.Seq{xrep.Str(hostileRing(f))}))
	seeded, st := freshShard()
	for _, rec := range goodShardRecords() {
		if _, err := seeded.fold(rec); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(encodeCheckpoint(st, nil, seeded))
	f.Add(encodeCheckpoint(st, nil, newShardCore("", nil, nil)))
	f.Add([]byte{})
	f.Add(shardRecord(seedRec, overCapSeed))
	// The tombstone an abort of an unknown transaction leaves.
	f.Add(shardRecord(tpcRec, xrep.Seq{xrep.Str("aborted"), xrep.Str("tx9"), xrep.Str(""), xrep.Str(""), xrep.Int(0)}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		core, st := freshShard()
		var folded xrep.Value
		var mine bool
		var foldErr error
		if v, err := wire.UnmarshalValue(data); err == nil {
			folded = v
			mine, foldErr = core.fold(v)
		}
		cpSt := &branchState{accounts: map[string]int64{}, applied: map[string]string{}}
		cpCore := newShardCore("s1", cpSt, nil)
		cpErr := restoreBranch(data, cpCore)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 256<<10+uint64(len(data))*ring.MaxVNodes*16 {
			t.Fatalf("reading %d bytes allocated %d", len(data), n)
		}

		if mine && foldErr == nil {
			rec := folded.(xrep.Rec)
			kinds := shardRecordKinds[rec.Name]
			if len(rec.Fields) != len(kinds) {
				t.Fatalf("fold accepted a %s record of %d fields", rec.Name, len(rec.Fields))
			}
			for i, k := range kinds {
				if k != xrep.KindNull && (rec.Fields[i] == nil || rec.Fields[i].Kind() != k) {
					t.Fatalf("fold accepted a %s record whose field %d is %v", rec.Name, i, rec.Fields[i])
				}
			}
			again, err := wire.UnmarshalValue(shardRecord(rec.Name, rec.Fields))
			if err != nil {
				t.Fatal(err)
			}
			core2, st2 := freshShard()
			if _, err := core2.fold(again); err != nil || !reflect.DeepEqual(core, core2) || !reflect.DeepEqual(st.accounts, st2.accounts) {
				t.Fatalf("an accepted %s record does not survive encode → fold: %v", rec.Name, err)
			}
		}
		if cpErr == nil {
			st2 := &branchState{accounts: map[string]int64{}, applied: map[string]string{}}
			core2 := newShardCore("s1", st2, nil)
			if err := restoreBranch(encodeCheckpoint(cpSt, nil, cpCore), core2); err != nil ||
				!reflect.DeepEqual(cpSt.accounts, st2.accounts) || !reflect.DeepEqual(cpSt.holds, st2.holds) ||
				!reflect.DeepEqual(cpCore.escrow, core2.escrow) || !reflect.DeepEqual(cpCore.installed, core2.installed) || len(cpCore.out) != len(core2.out) {
				t.Fatalf("an accepted checkpoint does not survive encode → restore: %v", err)
			}
		}
	})
}

// EscrowOp builds the operation a cross-shard transfer's leg sends a branch
// participant: kind is "debit" or "credit".
func EscrowOp(kind, acct string, amount int64) xrep.Value {
	return xrep.Seq{xrep.Str(kind), xrep.Str(acct), xrep.Int(amount)}
}
