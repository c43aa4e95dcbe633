package bank

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/amo"
	"repro/internal/guardian"
	"repro/internal/ring"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// opRecordTree, encodeCheckpointTree and shardStateTree are the encoders
// this package had before records were written field by field: build the
// value tree, flatten it. They stay here as the reference the append
// encoders are held to.
func opRecordTree(t testing.TB, kind, acct string, amount int64, opID string) []byte {
	t.Helper()
	b, err := wire.MarshalValue(xrep.Seq{xrep.Str(kind), xrep.Str(acct), xrep.Int(amount), xrep.Str(opID)})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func encodeCheckpointTree(t testing.TB, st *branchState, dedup *amo.Dedup, core *shardCore) []byte {
	t.Helper()
	accts := make([]string, 0, len(st.accounts))
	for a := range st.accounts {
		accts = append(accts, a)
	}
	sort.Strings(accts)
	accounts := make(xrep.Seq, 0, len(accts))
	for _, a := range accts {
		accounts = append(accounts, xrep.Seq{xrep.Str(a), xrep.Int(st.accounts[a])})
	}
	ops := make([]string, 0, len(st.applied))
	for id := range st.applied {
		ops = append(ops, id)
	}
	sort.Strings(ops)
	applied := make(xrep.Seq, 0, len(ops))
	for _, id := range ops {
		applied = append(applied, xrep.Seq{xrep.Str(id), xrep.Str(st.applied[id])})
	}
	var dsnap xrep.Value = xrep.Seq{}
	if dedup != nil {
		dsnap = dedup.Snapshot()
	}
	buf, err := wire.MarshalValue(xrep.Rec{Name: checkpointRec, Fields: xrep.Seq{accounts, applied, dsnap, shardStateTree(core)}})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// encodeCheckpoint is one branch checkpoint written into buffers of its own.
func encodeCheckpoint(st *branchState, dedup *amo.Dedup, core *shardCore) []byte {
	return new(checkpointBufs).encode(st, dedup, core)
}

// shardStateTree renders the shard core's state as the checkpoint's fourth
// field: the adopted ring, installed handoff ids, cut handoffs, and escrow
// transactions, maps in sorted order.
func shardStateTree(c *shardCore) xrep.Value {
	blob := ""
	if c.ring != nil {
		blob = string(c.ring.Marshal())
	}
	hids := make([]string, 0, len(c.installed))
	for hid := range c.installed {
		hids = append(hids, hid)
	}
	sort.Strings(hids)
	installed := make(xrep.Seq, 0, len(hids))
	for _, hid := range hids {
		installed = append(installed, xrep.Str(hid))
	}
	outIDs := make([]string, 0, len(c.out))
	for hid := range c.out {
		outIDs = append(outIDs, hid)
	}
	sort.Strings(outIDs)
	outs := make(xrep.Seq, 0, len(outIDs))
	for _, hid := range outIDs {
		o := c.out[hid]
		acked := int64(0)
		if o.acked {
			acked = 1
		}
		outs = append(outs, xrep.Seq{
			xrep.Str(hid), xrep.Str(o.dest), xrep.Str(o.blob), xrep.Int(acked), o.accounts,
		})
	}
	txns := xrep.Seq{}
	c.escrow.Each(func(txid, phase string, op xrep.Value) {
		// An abort that had no prepare has no op, and reads as ("", "", 0).
		f := xrep.ReadSeq(op, 3)
		kind, acct, amount := f.Str(), f.Str(), f.Int()
		txns = append(txns, xrep.Seq{
			xrep.Str(txid), xrep.Str(phase), xrep.Str(kind), xrep.Str(acct), xrep.Int(amount),
		})
	})
	return xrep.Seq{xrep.Str(blob), installed, outs, txns}
}

// fillEscrow gives core's participant n transactions with router-shaped
// txids, taking turns at the four rows a table holds: a prepared debit (with
// its hold), a committed credit, a debit aborted after its prepare, and an
// abort that arrived with no prepare, which has no operation.
func fillEscrow(t testing.TB, core *shardCore, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		txid := fmt.Sprintf("router-%d/2/1/tx%d", i%3, i)
		acct := fmt.Sprintf("a%07d", i%500)
		var err error
		switch i % 4 {
		case 0:
			err = core.escrow.Apply("prepared", txid, EscrowOp("debit", acct, int64(i%97+1)))
		case 1:
			err = core.escrow.Restore("committed", txid, EscrowOp("credit", acct, int64(i)))
		case 2:
			if err = core.escrow.Apply("prepared", txid, EscrowOp("debit", acct, 7)); err == nil {
				err = core.escrow.Apply("aborted", txid, nil)
			}
		case 3:
			err = core.escrow.Apply("aborted", txid, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// opFromBytes unmarshals one log record and reads it as an op record.
func opFromBytes(data []byte) (kind, acct string, amount int64, opID string, ok bool) {
	v, err := wire.UnmarshalValue(data)
	if err != nil {
		return "", "", 0, "", false
	}
	kind, acct, amount, opID, err = decodeOpRecord(v)
	return kind, acct, amount, opID, err == nil
}

func TestOpRecordMatchesTree(t *testing.T) {
	long := strings.Repeat("k", 64<<10)
	cases := []struct {
		kind, acct string
		amount     int64
		opID       string
	}{
		{"open", "alice", 0, ""},
		{"deposit", "a0000001", 1, ""},
		{"withdraw", "bob", -7, "w-1"},
		{"deposit", "carol", 1 << 40, "d/in"},
		{"transfer_out", "", math.MaxInt64, ""},
		{"transfer_in", "dave", math.MinInt64, "x"},
		{"", "", 0, ""},
		{long, long, 1<<32 + 1, long},
	}
	for _, tc := range cases {
		want := opRecordTree(t, tc.kind, tc.acct, tc.amount, tc.opID)
		if got := appendOpRecord(nil, tc.kind, tc.acct, tc.amount, tc.opID); !bytes.Equal(got, want) {
			t.Errorf("appendOpRecord(%.10q, %.10q, %d, %.10q) differs from the tree encoding", tc.kind, tc.acct, tc.amount, tc.opID)
		}
		kind, acct, amount, opID, ok := opFromBytes(want)
		if !ok || kind != tc.kind || acct != tc.acct || amount != tc.amount || opID != tc.opID {
			t.Errorf("decodeOpRecord did not return what was encoded for %.10q", tc.kind)
		}
	}
	prop := func(kind, acct, opID string, amount int64) bool {
		return bytes.Equal(appendOpRecord([]byte{1, 2}, kind, acct, amount, opID)[2:], opRecordTree(t, kind, acct, amount, opID))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestCheckpointMatchesTree(t *testing.T) {
	r := ring.New("accounts", 0, ring.Member{Name: "s1"}, ring.Member{Name: "s2"})
	shard := newShardCore("s1", &branchState{}, nil)
	shard.adopt(r)
	shard.installed["accounts/1/s2->s1"] = true
	shard.out["accounts/2/s1->s2"] = &outboundHandoff{
		dest: "s2", blob: string(r.Marshal()), accounts: accountsSeq(map[string]int64{"a": 57, "b": -3}),
	}
	if err := shard.escrow.Restore("prepared", "cli/tx1", EscrowOp("debit", "d", 25)); err != nil {
		t.Fatal(err)
	}

	dedup := amo.NewDedup(amo.DedupOptions{})
	hook := dedup.Hook(func(_ *guardian.Process, req amo.Request) (string, xrep.Seq, bool) {
		if req.Seq%2 == 0 {
			return "balance_is", xrep.Seq{xrep.Int(req.Seq << 33)}, false
		}
		return OutcomeOK, nil, false
	})
	for seq := int64(1); seq <= 4; seq++ {
		for _, client := range []string{"cli/2/1", "cli/1/1"} {
			hook(nil, &guardian.Message{Command: amo.ReqCommand, Args: xrep.Seq{
				xrep.Str(client), xrep.Int(seq), xrep.Int(seq - 2), xrep.Str("op"), xrep.Seq{},
			}})
		}
	}

	twoPC := newShardCore("s2", &branchState{}, nil)
	twoPC.adopt(r)
	fillEscrow(t, twoPC, 3000)

	big := &branchState{accounts: make(map[string]int64, 50000), applied: make(map[string]string)}
	for i := 0; i < 50000; i++ {
		big.accounts[fmt.Sprintf("a%07d", i)] = int64(i)*1_000_003 - 1<<34
	}
	cases := []struct {
		name  string
		st    *branchState
		dedup *amo.Dedup
		core  *shardCore
	}{
		{"empty", &branchState{}, nil, newShardCore("", nil, nil)},
		{"plain branch", &branchState{
			accounts: map[string]int64{"alice": 550, "": 0, "bob": -1, "wide": 1 << 40},
			applied:  map[string]string{"d1": OutcomeOK, "w-big": OutcomeInsufficient, "": ""},
		}, dedup, newShardCore("", nil, nil)},
		{"shard state", &branchState{accounts: map[string]int64{"d": 100}, applied: map[string]string{}}, nil, shard},
		{"50000 accounts", big, dedup, shard},
		{"3000 escrow rows", &branchState{accounts: map[string]int64{"a0000001": 9}}, dedup, twoPC},
	}
	// One set of buffers, as a branch keeps: each case after the largest
	// is written over that one's bytes.
	var bufs checkpointBufs
	for _, tc := range cases {
		want := encodeCheckpointTree(t, tc.st, tc.dedup, tc.core)
		got := bufs.encode(tc.st, tc.dedup, tc.core)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encodeCheckpoint wrote %d bytes that differ from the tree's %d", tc.name, len(got), len(want))
			continue
		}
		st := &branchState{accounts: make(map[string]int64), applied: make(map[string]string)}
		if _, _, err := decodeCheckpoint(got, st); err != nil || len(st.accounts) != len(tc.st.accounts) || len(st.applied) != len(tc.st.applied) {
			t.Errorf("%s: decodeCheckpoint: %v (%d accounts, %d applied ops)", tc.name, err, len(st.accounts), len(st.applied))
		}
	}
	prop := func(accounts map[string]int64, applied map[string]string) bool {
		st := &branchState{accounts: accounts, applied: applied}
		return bytes.Equal(encodeCheckpoint(st, nil, newShardCore("", nil, nil)), encodeCheckpointTree(t, st, nil, newShardCore("", nil, nil)))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	// Shard state: random installed ids, cut handoffs (retained or acked)
	// and escrow rows in all four shapes, each key's value choosing its
	// shape, with and without an adopted ring.
	shardProp := func(installed []string, outs, rows map[string]int64, adopted bool) bool {
		core := newShardCore("s1", &branchState{}, nil)
		if adopted {
			core.adopt(r)
		}
		for _, hid := range installed {
			core.installed[hid] = true
		}
		for hid, bal := range outs {
			o := &outboundHandoff{dest: hid + ">", blob: string(r.Marshal()), acked: bal%2 == 0, accounts: xrep.Seq{}}
			if !o.acked {
				o.accounts = accountsSeq(map[string]int64{hid: bal, hid + "+": -bal})
			}
			core.out[hid] = o
		}
		for txid, amount := range rows {
			op := EscrowOp("debit", txid+"/acct", amount&0xffff+1)
			var err error
			switch amount & 3 {
			case 0:
				err = core.escrow.Apply("prepared", txid, op)
			case 1:
				err = core.escrow.Restore("committed", txid, EscrowOp("credit", txid, amount))
			case 2:
				if err = core.escrow.Apply("prepared", txid, op); err == nil {
					err = core.escrow.Apply("aborted", txid, nil)
				}
			default:
				err = core.escrow.Apply("aborted", txid, nil)
			}
			if err != nil {
				return false
			}
		}
		st := &branchState{}
		return bytes.Equal(encodeCheckpoint(st, nil, core), encodeCheckpointTree(t, st, nil, core))
	}
	if err := quick.Check(shardProp, nil); err != nil {
		t.Error(err)
	}
}

// TestRecordEncodersAllocateNothing: an op record encoded into a scratch
// that has grown to its size allocates nothing; the log's own copy in
// Append is the only one left.
func TestRecordEncodersAllocateNothing(t *testing.T) {
	scratch := appendOpRecord(nil, "deposit", "a0000001", 1<<40, "op-17")
	if n := testing.AllocsPerRun(200, func() {
		scratch = appendOpRecord(scratch[:0], "deposit", "a0000001", 1<<40, "op-17")
	}); n != 0 {
		t.Errorf("encoding an op record into a warm scratch allocates %v times, want 0", n)
	}
}

// FuzzBankRecords feeds hostile bytes to the two decoders that read a
// branch's log on recovery. Neither may panic, and neither may allocate
// beyond a bound set by the input's length (wire's decoder holds value
// trees to that; the tables filled from them add a map entry per decoded
// pair).
func FuzzBankRecords(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		kind, acct, amount, opID, ok := opFromBytes(data)
		st := &branchState{accounts: make(map[string]int64), applied: make(map[string]string)}
		_, _, err := decodeCheckpoint(data, st)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10+256*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if ok {
			k, a, n, id, ok2 := opFromBytes(appendOpRecord(nil, kind, acct, amount, opID))
			if !ok2 || k != kind || a != acct || n != amount || id != opID {
				t.Fatal("an accepted op record does not survive encode → decode")
			}
		}
		if ok && err == nil {
			t.Fatal("the same bytes decoded as an op record and as a checkpoint")
		}
	})
}
