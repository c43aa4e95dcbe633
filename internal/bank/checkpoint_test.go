package bank

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/amo"
	"repro/internal/durable"
	"repro/internal/guardian"
	"repro/internal/ring"
	"repro/internal/sendprim"
	"repro/internal/xrep"
)

// walBankWorld builds a world whose branch node keeps its storage in an
// on-disk WAL under root, so closing the world and opening a second one
// over the same root models killing and restarting the hosting OS process.
// The teller node stays on a simulated disk: it is a stateless client, and
// a persistent store would advance its guardian-id catalog across restarts
// (ids are never reused), breaking the deterministic client identity the
// dedup test below relies on.
func walBankWorld(t *testing.T, root string) *guardian.World {
	t.Helper()
	w := guardian.NewWorld(guardian.Config{
		Store: func(node string) (durable.Store, error) {
			if node != "branch" {
				return nil, nil
			}
			return durable.OpenWAL(filepath.Join(root, node), durable.WALConfig{})
		},
	})
	if err := w.Register(BranchDef()); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestCheckpointCompactsAndRecoversAcrossProcessDeath drives a branch
// created with a checkpoint cadence, verifies the log actually compacts,
// then restarts the whole world over the same data directory and checks
// that both the account table and the idempotency memory come back — the
// applied-op table must be restored FROM THE CHECKPOINT, because the
// records it folded in are gone from the log.
func TestCheckpointCompactsAndRecoversAcrossProcessDeath(t *testing.T) {
	root := t.TempDir()

	w1 := walBankWorld(t, root)
	nb := w1.MustAddNode("branch")
	nt := w1.MustAddNode("teller-node")
	created, err := nb.Bootstrap(BranchDefName, 3) // checkpoint every 3 mutations
	if err != nil {
		t.Fatal(err)
	}
	a := created.Ports[0]
	c := newClient(t, nt)

	c.call(t, a, "open", "alice")
	c.call(t, a, "deposit", "alice", int64(100), "d1")
	// This withdraw fails. After the later deposits a re-execution WOULD
	// succeed, so its replayed outcome discriminates a restored applied-op
	// table from a lost one.
	if m := c.call(t, a, "withdraw", "alice", int64(250), "w-big"); m.Command != OutcomeInsufficient {
		t.Fatalf("withdraw: %v", m.Command)
	}
	c.call(t, a, "deposit", "alice", int64(400), "d2")
	c.call(t, a, "deposit", "alice", int64(50), "d3")

	// Five mutations at cadence 3: a checkpoint fired, folding the early
	// records away. Without it the log would hold all five op records plus
	// the open.
	bg, ok := nb.GuardianByID(created.GuardianID)
	if !ok {
		t.Fatal("branch guardian vanished")
	}
	log := bg.Log()
	cp, _, err := log.Recover()
	if err != nil {
		t.Fatalf("live recover: %v", err)
	}
	if len(cp) == 0 {
		t.Fatal("no checkpoint taken after 5 mutations at cadence 3")
	}
	if n := log.DurableLen(); n > 3 {
		t.Fatalf("log holds %d records after checkpoint, want <= 3 (not compacted?)", n)
	}

	if err := w1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// "Restart the process": a fresh world over the same directories. The
	// node catalog re-creates the branch (same id, same ports, same
	// checkpoint cadence) and its recovery replays checkpoint + tail.
	w2 := walBankWorld(t, root)
	defer w2.Close()
	w2.MustAddNode("branch")
	nt2 := w2.MustAddNode("teller-node")
	c2 := newClient(t, nt2)

	if m := c2.call(t, a, "balance", "alice"); m.Command != "balance_is" || m.Int(0) != 550 {
		t.Fatalf("recovered balance: %v %v", m.Command, m.Args)
	}
	// The failed withdraw's op id must replay its ORIGINAL outcome even
	// though the balance now covers it; OutcomeOK here means the applied-op
	// table the checkpoint carried was lost.
	if m := c2.call(t, a, "withdraw", "alice", int64(250), "w-big"); m.Command != OutcomeInsufficient {
		t.Fatalf("replayed w-big: %v, want %v", m.Command, OutcomeInsufficient)
	}
	if m := c2.call(t, a, "balance", "alice"); m.Int(0) != 550 {
		t.Fatalf("balance moved to %d after replayed op", m.Int(0))
	}
	// And the recovered branch still takes new ops.
	if m := c2.call(t, a, "withdraw", "alice", int64(50), "w-new"); m.Command != OutcomeOK {
		t.Fatalf("fresh withdraw: %v", m.Command)
	}
	if m := c2.call(t, a, "balance", "alice"); m.Int(0) != 500 {
		t.Fatalf("final balance: %d", m.Int(0))
	}
}

// TestCheckpointCoversDedupSnapshot checks the subtlest piece of branch
// checkpointing: the at-most-once filter's cached-reply table rides in the
// checkpoint. After a checkpoint folds a dedup record away and the process
// dies, a duplicate of that request must STILL be answered from the cache
// — the only place it can come from is the checkpoint's snapshot.
func TestCheckpointCoversDedupSnapshot(t *testing.T) {
	root := t.TempDir()
	callerOpts := amo.CallerOptions{
		Timeout: 200 * time.Millisecond,
		Retries: 10,
	}

	w1 := walBankWorld(t, root)
	nb := w1.MustAddNode("branch")
	nt := w1.MustAddNode("teller-node")
	created, err := nb.Bootstrap(BranchDefName, 1) // checkpoint at every handler entry
	if err != nil {
		t.Fatal(err)
	}
	a, amoPort := created.Ports[0], created.Ports[1]

	// The caller's at-most-once client id is derived from its node,
	// guardian, and reply-port ids. Re-creating the driver and caller in
	// the same order in the second world yields the SAME client id with its
	// sequence numbers starting over — a deliberate stand-in for a client
	// that retries a request across the server's death.
	c := newClient(t, nt)
	caller, err := amo.NewCaller(c.proc, callerOpts)
	if err != nil {
		t.Fatal(err)
	}

	c.call(t, a, "open", "alice")
	r, err := caller.Call(amoPort, "deposit", "alice", int64(100))
	if err != nil || r.Command != OutcomeOK {
		t.Fatalf("amo deposit: %v %v", r, err)
	}
	// One more native mutation so the cadence-1 checkpoint at its entry
	// folds the deposit's dedup record out of the log.
	c.call(t, a, "deposit", "alice", int64(50), "d-extra")

	if err := w1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	w2 := walBankWorld(t, root)
	defer w2.Close()
	w2.MustAddNode("branch")
	nt2 := w2.MustAddNode("teller-node")
	c2 := newClient(t, nt2)
	caller2, err := amo.NewCaller(c2.proc, callerOpts)
	if err != nil {
		t.Fatal(err)
	}
	if caller2.Client() != caller.Client() {
		t.Fatalf("caller identity drifted: %s vs %s — test setup no longer deterministic", caller2.Client(), caller.Client())
	}

	// Same client, same seq 1, DIFFERENT command: at-most-once means the
	// cached reply of the original deposit comes back and the withdraw is
	// never executed. If the snapshot was lost, the withdraw runs and the
	// balance drops.
	r2, err := caller2.Call(amoPort, "withdraw", "alice", int64(100))
	if err != nil {
		t.Fatalf("replayed call: %v", err)
	}
	if r2.Command != OutcomeOK {
		t.Fatalf("replayed call outcome: %v", r2.Command)
	}
	if m := c2.call(t, a, "balance", "alice"); m.Int(0) != 150 {
		t.Fatalf("balance = %d: duplicate executed after recovery (dedup snapshot lost)", m.Int(0))
	}
}

// TestShardCheckpointRoundTrip is the pure-data half of shard-mode
// checkpointing: everything appendCheckpoint writes must come back
// identical through decode + restoreCheckpoint — the adopted ring,
// installed handoffs, cut outbound handoffs (retained and acked), and
// escrow transactions with their derived holds.
func TestShardCheckpointRoundTrip(t *testing.T) {
	r1 := ring.New("accounts", 0, ring.Member{Name: "s1"}, ring.Member{Name: "s2"})
	r2, err := r1.WithJoin(ring.Member{Name: "s3"})
	if err != nil {
		t.Fatal(err)
	}
	blob := string(r2.Marshal())
	retained := accountsSeq(map[string]int64{"a": 57, "b": 50})

	st := &branchState{
		accounts: map[string]int64{"d": 100, "e": 20},
		applied:  map[string]string{"op1": OutcomeOK},
	}
	core := newShardCore("s1", st, nil)
	core.adopt(r2)
	core.installed["accounts/1/s2->s1"] = true
	core.out["accounts/2/s1->s3"] = &outboundHandoff{dest: "s3", blob: blob, accounts: retained}
	core.out["accounts/2/s1->s4"] = &outboundHandoff{dest: "s4", blob: blob, accounts: xrep.Seq{}, acked: true}
	// Escrow transactions, as a checkpoint would restore them: the
	// prepared debit places its hold.
	if err := core.escrow.Restore("prepared", "cli/tx1", EscrowOp("debit", "d", 25)); err != nil {
		t.Fatal(err)
	}
	if err := core.escrow.Restore("committed", "cli/tx2", EscrowOp("credit", "e", 10)); err != nil {
		t.Fatal(err)
	}
	// An abort that overtook its prepare is logged with no operation.
	if err := core.escrow.Apply("aborted", "cli/tx3", nil); err != nil {
		t.Fatal(err)
	}

	buf := encodeCheckpoint(st, nil, core)
	st2 := &branchState{accounts: make(map[string]int64), applied: make(map[string]string)}
	_, shardState, err := decodeCheckpoint(buf, st2)
	if err != nil {
		t.Fatal(err)
	}
	if shardState == nil {
		t.Fatal("checkpoint carried no shard state")
	}
	core2 := newShardCore("s1", st2, nil)
	if err := core2.restoreCheckpoint(shardState); err != nil {
		t.Fatal(err)
	}

	if core2.ring == nil || core2.ring.Epoch != r2.Epoch {
		t.Fatalf("restored ring %v, want epoch %d", core2.ring, r2.Epoch)
	}
	if !core2.installed["accounts/1/s2->s1"] {
		t.Fatal("installed handoff lost")
	}
	o := core2.out["accounts/2/s1->s3"]
	if o == nil || o.acked || o.dest != "s3" || o.blob != blob {
		t.Fatalf("retained cut handoff came back as %+v", o)
	}
	if !reflect.DeepEqual(o.accounts, retained) {
		t.Fatalf("retained range = %v, want %v", o.accounts, retained)
	}
	oa := core2.out["accounts/2/s1->s4"]
	if oa == nil || !oa.acked || len(oa.accounts) != 0 {
		t.Fatalf("acked handoff came back as %+v", oa)
	}
	type escrowRow struct {
		txid, phase string
		op          xrep.Value
	}
	rows := func(c *shardCore) (out []escrowRow) {
		c.escrow.Each(func(txid, phase string, op xrep.Value) {
			out = append(out, escrowRow{txid, phase, op})
		})
		return out
	}
	wantRows := []escrowRow{
		{"cli/tx1", "prepared", EscrowOp("debit", "d", 25)},
		{"cli/tx2", "committed", EscrowOp("credit", "e", 10)},
		{"cli/tx3", "aborted", EscrowOp("", "", 0)},
	}
	if got := rows(core2); !reflect.DeepEqual(got, wantRows) {
		t.Fatalf("escrow txns = %v, want %v", got, wantRows)
	}
	if st2.holds["d"] != 25 {
		t.Fatalf("prepared debit hold = %d, want 25", st2.holds["d"])
	}
	if st2.accounts["d"] != 100 || st2.applied["op1"] != OutcomeOK {
		t.Fatalf("branch state lost: %v %v", st2.accounts, st2.applied)
	}
	// The restored core must re-encode to the identical bytes: a lossy
	// round trip would drift a little more on every checkpoint cycle.
	if again := encodeCheckpoint(st2, nil, core2); !bytes.Equal(again, buf) {
		t.Fatalf("re-encoded checkpoint differs: %d bytes, first written %d", len(again), len(buf))
	}
}

// TestShardCheckpointCompactsAndRecovers pins the liveness half: a branch
// that has adopted a ring (a shard record in its log) must KEEP taking
// checkpoints — an earlier build latched a dirty flag on the first shard
// record and silently stopped compacting forever — and a restart over the
// compacted log must restore the adopted epoch from the checkpoint,
// because the ring record it folded away is gone.
func TestShardCheckpointCompactsAndRecovers(t *testing.T) {
	root := t.TempDir()

	w1 := walBankWorld(t, root)
	nb := w1.MustAddNode("branch")
	nt := w1.MustAddNode("teller-node")
	created, err := nb.Bootstrap(BranchDefName, 3, ShardArg("s1")) // checkpoint every 3 mutations
	if err != nil {
		t.Fatal(err)
	}
	a := created.Ports[0]
	c := newClient(t, nt)

	r := ring.New("accounts", 0, ring.Member{Name: "s1", Native: a, Amo: created.Ports[1]})
	rm, err := sendprim.Call(c.proc, a, MigrateReplyType,
		sendprim.CallOptions{Timeout: time.Second}, "ring_update", string(r.Marshal()))
	if err != nil || rm.Command != "ring_ok" || rm.Int(0) != 1 {
		t.Fatalf("ring_update: %v %v", rm, err)
	}

	c.call(t, a, "open", "alice")
	for i, amt := range []int64{100, 400, 50, 25} {
		if m := c.call(t, a, "deposit", "alice", amt, fmt.Sprintf("d%d", i)); m.Command != OutcomeOK {
			t.Fatalf("deposit %d: %v", i, m.Command)
		}
	}

	bg, ok := nb.GuardianByID(created.GuardianID)
	if !ok {
		t.Fatal("branch guardian vanished")
	}
	cp, _, err := bg.Log().Recover()
	if err != nil {
		t.Fatalf("live recover: %v", err)
	}
	if len(cp) == 0 {
		t.Fatal("no checkpoint after 5 mutations at cadence 3: shard mode stopped compacting")
	}
	if n := bg.Log().DurableLen(); n > 3 {
		t.Fatalf("log holds %d records after checkpoint, want <= 3 (not compacted?)", n)
	}

	if err := w1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	w2 := walBankWorld(t, root)
	defer w2.Close()
	nb2 := w2.MustAddNode("branch")
	nt2 := w2.MustAddNode("teller-node")
	c2 := newClient(t, nt2)
	if m := c2.call(t, a, "balance", "alice"); m.Command != "balance_is" || m.Int(0) != 575 {
		t.Fatalf("recovered balance: %v %v", m.Command, m.Args)
	}
	bg2, ok := nb2.GuardianByID(created.GuardianID)
	if !ok {
		t.Fatal("recovered branch guardian missing")
	}
	member, epoch, _, ok := ShardSnapshot(bg2)
	if !ok || member != "s1" || epoch != 1 {
		t.Fatalf("recovered shard state member=%q epoch=%d ok=%v, want s1/1 (ring lost with the compacted record?)", member, epoch, ok)
	}
}

// shardCheckpointAllocCeiling is what encodeCheckpoint of a shard core may
// allocate whatever the size of its tables: the measured 25, exact. While
// the escrow table was built as a value tree before it was marshalled it
// grew by about seven a row: 720 over 100 rows, 70 010 over 10 000.
const shardCheckpointAllocCeiling = 25

// TestShardCheckpointAllocCeiling pins that a shard checkpoint costs the
// same number of allocations for 100 escrow rows as for 10 000: the rows go
// from the participant's table to bytes, and the buffer is sized for them
// up front. The participant never forgets a transaction, so a table that
// allocated per row would charge every operation a share of every
// transaction ever run.
func TestShardCheckpointAllocCeiling(t *testing.T) {
	r := ring.New("accounts", 0, ring.Member{Name: "s1"}, ring.Member{Name: "s2"})
	measure := func(rows int) float64 {
		st := &branchState{accounts: make(map[string]int64), applied: make(map[string]string)}
		for i := 0; i < 100; i++ {
			st.accounts[fmt.Sprintf("a%07d", i)] = int64(i)
			st.applied[fmt.Sprintf("op-%d", i)] = OutcomeOK
		}
		core := newShardCore("s1", st, nil)
		core.adopt(r)
		core.installed["accounts/1/s2>s1"] = true
		fillEscrow(t, core, rows)
		return testing.AllocsPerRun(20, func() { encodeCheckpoint(st, nil, core) })
	}
	small, large := measure(100), measure(10_000)
	t.Logf("encodeCheckpoint allocates %.0f times over 100 escrow rows, %.0f over 10 000", small, large)
	if large != small || large > shardCheckpointAllocCeiling {
		t.Errorf("encodeCheckpoint allocates %.0f times over 100 escrow rows and %.0f over 10 000, want the same and at most %d",
			small, large, shardCheckpointAllocCeiling)
	}
}
