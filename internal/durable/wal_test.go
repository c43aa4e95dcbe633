package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// openTestWAL opens a WAL in a fresh temp dir.
func openTestWAL(t *testing.T, cfg WALConfig) *WAL {
	t.Helper()
	w, err := OpenWAL(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// reopen simulates process death and restart: the old handle is closed
// and a brand-new WAL instance scans the same directory.
func reopen(t *testing.T, w *WAL, cfg WALConfig) *WAL {
	t.Helper()
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	nw, err := OpenWAL(w.Dir(), cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return nw
}

func mustOpenLog(t *testing.T, w *WAL, name string) Log {
	t.Helper()
	l, err := w.OpenLog(name)
	if err != nil {
		t.Fatalf("open log %s: %v", name, err)
	}
	return l
}

// copyDir snapshots a directory tree — the disk image an instant crash
// would leave behind.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
}

func TestWALRoundTripAcrossReopen(t *testing.T) {
	w := openTestWAL(t, WALConfig{})
	l := mustOpenLog(t, w, "bank_branch-2")
	for i := 0; i < 5; i++ {
		l.AppendSync([]byte(fmt.Sprintf("op-%d", i)))
	}
	l.Append([]byte("volatile: never synced"))
	if got := l.VolatileLen(); got != 1 {
		t.Fatalf("VolatileLen = %d, want 1", got)
	}

	w2 := reopen(t, w, WALConfig{})
	l2 := mustOpenLog(t, w2, "bank_branch-2")
	cp, recs, err := l2.Recover()
	if err != ErrNoCheckpoint {
		t.Fatalf("Recover err = %v, want ErrNoCheckpoint", err)
	}
	if cp != nil {
		t.Fatalf("unexpected checkpoint %q", cp)
	}
	if len(recs) != 5 {
		t.Fatalf("recovered %d records, want 5 (the unsynced append must be gone)", len(recs))
	}
	for i, r := range recs {
		if want := fmt.Sprintf("op-%d", i); string(r.Data) != want {
			t.Fatalf("record %d = %q, want %q", i, r.Data, want)
		}
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d seq = %d, want %d", i, r.Seq, i+1)
		}
	}
	if got := l2.LastDurableSeq(); got != 5 {
		t.Fatalf("LastDurableSeq = %d, want 5", got)
	}
	// Appending after recovery continues the sequence.
	if seq := l2.AppendSync([]byte("op-5")); seq != 6 {
		t.Fatalf("post-recovery seq = %d, want 6", seq)
	}
	if names := w2.LogNames(); len(names) != 1 || names[0] != "bank_branch-2" {
		t.Fatalf("LogNames = %v", names)
	}
}

func TestWALSyncBatchIsAtomic(t *testing.T) {
	// Two records forced by one Sync form one frame; damaging the frame
	// drops BOTH at recovery — never a prefix. This is the property that
	// keeps an op record and its dedup record inseparable.
	w := openTestWAL(t, WALConfig{})
	l := mustOpenLog(t, w, "log")
	l.AppendSync([]byte("alone"))
	l.Append([]byte("withdraw"))
	l.Append([]byte("deposit"))
	l.Sync()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(w.Dir(), "log", "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (%v)", segs, err)
	}
	// Flip one byte inside the final batch's payload.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(w.Dir(), WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l2 := mustOpenLog(t, w2, "log")
	_, recs, _ := l2.Recover()
	if len(recs) != 1 || string(recs[0].Data) != "alone" {
		t.Fatalf("recovered %v, want only the first batch", recs)
	}
	rep, ok := w2.Report("log")
	if !ok || !rep.TornTail || rep.TornBytes == 0 {
		t.Fatalf("report = %+v, want a reported torn tail", rep)
	}
	if rep.Records != 1 {
		t.Fatalf("report.Records = %d, want 1", rep.Records)
	}
}

func TestWALTruncatedTail(t *testing.T) {
	// A file cut mid-frame (kernel wrote only part of the batch before
	// the crash) recovers to the last complete batch.
	w := openTestWAL(t, WALConfig{})
	l := mustOpenLog(t, w, "log")
	l.AppendSync([]byte("first"))
	l.AppendSync([]byte("second"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(w.Dir(), "log", "wal-*.seg"))
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-2); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(w.Dir(), WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l2 := mustOpenLog(t, w2, "log")
	_, recs, _ := l2.Recover()
	if len(recs) != 1 || string(recs[0].Data) != "first" {
		t.Fatalf("recovered %v, want just %q", recs, "first")
	}
	rep, _ := w2.Report("log")
	if !rep.TornTail {
		t.Fatalf("report = %+v, want torn tail", rep)
	}
	// The torn bytes are physically gone: a further reopen is clean.
	w3 := reopen(t, w2, WALConfig{})
	rep3, _ := func() (RecoveryReport, bool) {
		mustOpenLog(t, w3, "log")
		return w3.Report("log")
	}()
	if rep3.TornTail {
		t.Fatalf("second reopen still reports a torn tail: %+v", rep3)
	}
}

func TestWALInteriorCorruptionRejected(t *testing.T) {
	// Damage in a non-final segment is not a legal crash residue;
	// recovery must refuse to open rather than silently skip it.
	w := openTestWAL(t, WALConfig{SegmentSize: 1}) // every batch rotates
	l := mustOpenLog(t, w, "log")
	l.AppendSync([]byte("seg-one"))
	l.AppendSync([]byte("seg-two"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(w.Dir(), "log", "wal-*.seg"))
	if len(segs) != 2 {
		t.Fatalf("segments = %v, want 2", segs)
	}
	data, _ := os.ReadFile(segs[0])
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(w.Dir(), WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.OpenLog("log"); !strings.Contains(fmt.Sprint(err), "corrupt") {
		t.Fatalf("OpenLog on interior damage = %v, want ErrCorrupt", err)
	}
}

func TestWALCheckpointRoundTrip(t *testing.T) {
	w := openTestWAL(t, WALConfig{})
	l := mustOpenLog(t, w, "log")
	for i := 0; i < 6; i++ {
		l.AppendSync([]byte(fmt.Sprintf("op-%d", i)))
	}
	l.Checkpoint([]byte("state@4"), 4)
	if got := l.DurableLen(); got != 2 {
		t.Fatalf("DurableLen after checkpoint = %d, want 2", got)
	}

	w2 := reopen(t, w, WALConfig{})
	l2 := mustOpenLog(t, w2, "log")
	cp, recs, err := l2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if string(cp) != "state@4" {
		t.Fatalf("checkpoint = %q", cp)
	}
	if len(recs) != 2 || recs[0].Seq != 5 || recs[1].Seq != 6 {
		t.Fatalf("records after checkpoint = %v", recs)
	}
	if got := l2.LastDurableSeq(); got != 6 {
		t.Fatalf("LastDurableSeq = %d, want 6", got)
	}
}

func TestWALCrashBetweenCheckpointInstallAndCompaction(t *testing.T) {
	// Snapshot the disk image at the MidCheckpoint hook — the instant
	// after the atomic rename installed the new checkpoint but before
	// any record was compacted away — and recover from the snapshot.
	// The (checkpoint, records) pair must be consistent: stale records
	// at or below the watermark are skipped and reported, not replayed.
	snap := t.TempDir()
	var once sync.Once
	var root string
	cfg := WALConfig{Crash: func(point, _ string) {
		if point == fault.MidCheckpoint {
			once.Do(func() { copyDir(t, root, snap) })
		}
	}}
	w := openTestWAL(t, cfg)
	root = w.Dir()
	l := mustOpenLog(t, w, "log")
	for i := 0; i < 5; i++ {
		l.AppendSync([]byte(fmt.Sprintf("op-%d", i)))
	}
	l.Checkpoint([]byte("state@3"), 3)

	ws, err := OpenWAL(snap, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ls := mustOpenLog(t, ws, "log")
	cp, recs, err := ls.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if string(cp) != "state@3" {
		t.Fatalf("snapshot checkpoint = %q, want the installed one", cp)
	}
	if len(recs) != 2 || recs[0].Seq != 4 || recs[1].Seq != 5 {
		t.Fatalf("snapshot records = %v, want seqs 4,5 only", recs)
	}
	rep, _ := ws.Report("log")
	if rep.Skipped != 3 {
		t.Fatalf("report.Skipped = %d, want the 3 stale records at or below the watermark", rep.Skipped)
	}
}

// writeBatches syncs batches of three records, "r<seq>", so that with a
// small SegmentSize every batch lands in a segment of its own.
func writeBatches(l Log, batches int) {
	for b := 0; b < batches; b++ {
		for i := 1; i <= 3; i++ {
			l.Append([]byte(fmt.Sprintf("r%d", 3*b+i)))
		}
		l.Sync()
	}
}

// wantPrefix asserts the log recovers exactly records 1..n as written by
// writeBatches.
func wantPrefix(t *testing.T, l Log, n int) {
	t.Helper()
	_, recs, _ := l.Recover()
	if len(recs) != n {
		t.Fatalf("recovered %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if want := fmt.Sprintf("r%d", i+1); r.Seq != uint64(i+1) || string(r.Data) != want {
			t.Fatalf("record %d = %d:%s, want %d:%s", i, r.Seq, r.Data, i+1, want)
		}
	}
}

func TestWALTruncateAcrossSegmentsAndMidBatch(t *testing.T) {
	cfg := WALConfig{SegmentSize: 32}
	w := openTestWAL(t, cfg)
	l := mustOpenLog(t, w, "log")
	writeBatches(l, 4) // segments hold 1-3, 4-6, 7-9, 10-12
	syncs := w.SyncCount()
	l.Truncate(5) // mid-batch in the second segment; the last two go whole
	if got := w.SyncCount() - syncs; got != 3 {
		t.Fatalf("Truncate forced %d times, want 3 (directory, prefix, directory)", got)
	}
	wantPrefix(t, l, 4)
	segs, err := listSegments(filepath.Join(w.Dir(), "log"))
	if err != nil || len(segs) != 2 {
		t.Fatalf("segments after Truncate(5) = %d (%v), want 2", len(segs), err)
	}

	w = reopen(t, w, cfg)
	l = mustOpenLog(t, w, "log")
	wantPrefix(t, l, 4)
	if seq := l.AppendSync([]byte("r5")); seq != 5 {
		t.Fatalf("Append after reopen = %d, want 5", seq)
	}
	l.Truncate(4) // the cut segment is the active one: rewrite it again
	l.AppendSync([]byte("r4"))
	w = reopen(t, w, cfg)
	wantPrefix(t, mustOpenLog(t, w, "log"), 4)
}

func TestWALTruncateCrashBeforeRename(t *testing.T) {
	// Snapshot the disk at MidTruncate: the later segments are gone and
	// the cut segment's prefix is forced to truncate.tmp, not yet renamed.
	// Recovery from that image must keep every record below the cut; it
	// may keep the cut segment whole, and it discards the stray tmp file.
	snap := t.TempDir()
	var root string
	cfg := WALConfig{SegmentSize: 32, Crash: func(point, _ string) {
		if point == fault.MidTruncate {
			copyDir(t, root, snap)
		}
	}}
	w := openTestWAL(t, cfg)
	root = w.Dir()
	l := mustOpenLog(t, w, "log")
	writeBatches(l, 4)
	l.Truncate(5)
	if _, err := os.Stat(filepath.Join(snap, "log", truncateTmpName)); err != nil {
		t.Fatalf("the snapshot holds no forced prefix: %v", err)
	}

	ws, err := OpenWAL(snap, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wantPrefix(t, mustOpenLog(t, ws, "log"), 6)
	if _, err := os.Stat(filepath.Join(snap, "log", truncateTmpName)); !os.IsNotExist(err) {
		t.Fatalf("stray %s survived the open: %v", truncateTmpName, err)
	}
}

func TestWALCrashBeforeAndAfterSync(t *testing.T) {
	// BeforeSync: the batch is claimed but nothing is on disk — a crash
	// loses it whole. AfterSync: the batch is durable though the caller
	// has not yet been told — a durable-but-unacked tail.
	before, after := t.TempDir(), t.TempDir()
	var root string
	var mode atomic.Int32 // 1: snapshot at BeforeSync; 2: at AfterSync
	cfg := WALConfig{Crash: func(point, _ string) {
		switch {
		case point == fault.BeforeSync && mode.Load() == 1:
			copyDir(t, root, before)
			mode.Store(0)
		case point == fault.AfterSync && mode.Load() == 2:
			copyDir(t, root, after)
			mode.Store(0)
		}
	}}
	w := openTestWAL(t, cfg)
	root = w.Dir()
	l := mustOpenLog(t, w, "log")
	l.AppendSync([]byte("base"))

	mode.Store(1)
	l.AppendSync([]byte("lost-at-before-sync"))
	mode.Store(2)
	l.AppendSync([]byte("durable-at-after-sync"))

	wb, err := OpenWAL(before, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, recs, _ := mustOpenLog(t, wb, "log").Recover()
	if len(recs) != 1 || string(recs[0].Data) != "base" {
		t.Fatalf("before-sync image recovered %v, want only %q", recs, "base")
	}

	wa, err := OpenWAL(after, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, recs, _ = mustOpenLog(t, wa, "log").Recover()
	if len(recs) != 3 {
		t.Fatalf("after-sync image recovered %d records, want 3", len(recs))
	}
}

func TestWALStrayCheckpointTmpDiscarded(t *testing.T) {
	w := openTestWAL(t, WALConfig{})
	l := mustOpenLog(t, w, "log")
	l.AppendSync([]byte("op"))
	l.Checkpoint([]byte("good"), 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(w.Dir(), "log", "checkpoint.tmp")
	if err := os.WriteFile(tmp, []byte("half-written junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(w.Dir(), WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := mustOpenLog(t, w2, "log").Recover()
	if err != nil || string(cp) != "good" {
		t.Fatalf("Recover = %q, %v; want the installed checkpoint", cp, err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("checkpoint.tmp survived open: %v", err)
	}
}

func TestWALCheckpointCorruptionRejected(t *testing.T) {
	w := openTestWAL(t, WALConfig{})
	l := mustOpenLog(t, w, "log")
	l.AppendSync([]byte("op"))
	l.Checkpoint([]byte("state"), 1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(w.Dir(), "log", "checkpoint")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(w.Dir(), WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.OpenLog("log"); !strings.Contains(fmt.Sprint(err), "corrupt") {
		t.Fatalf("OpenLog with damaged checkpoint = %v, want ErrCorrupt", err)
	}
}

func TestWALSegmentRotationAndCompaction(t *testing.T) {
	w := openTestWAL(t, WALConfig{SegmentSize: 64})
	l := mustOpenLog(t, w, "log")
	for i := 0; i < 20; i++ {
		l.AppendSync(bytes.Repeat([]byte{byte(i)}, 32))
	}
	glob := filepath.Join(w.Dir(), "log", "wal-*.seg")
	segs, _ := filepath.Glob(glob)
	if len(segs) < 3 {
		t.Fatalf("only %d segments after 20 oversized batches", len(segs))
	}
	// Fold everything into a checkpoint: every segment is deletable.
	l.Checkpoint([]byte("all"), l.LastDurableSeq())
	segs, _ = filepath.Glob(glob)
	if len(segs) != 0 {
		t.Fatalf("%d segments survive a covering checkpoint: %v", len(segs), segs)
	}
	// The log keeps working afterwards.
	l.AppendSync([]byte("after"))
	w2 := reopen(t, w, WALConfig{})
	cp, recs, err := mustOpenLog(t, w2, "log").Recover()
	if err != nil || string(cp) != "all" {
		t.Fatalf("cp = %q, %v", cp, err)
	}
	if len(recs) != 1 || string(recs[0].Data) != "after" {
		t.Fatalf("records = %v", recs)
	}
}

func TestWALGroupCommitCoalesces(t *testing.T) {
	// One leader's fsync covers every record appended while it ran: 1
	// fsync for the first caller, then one more for the batch of
	// followers — far fewer than one per caller.
	const followers = 8
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	var first atomic.Bool
	first.Store(true)
	cfg := WALConfig{Crash: func(point, _ string) {
		if point == fault.BeforeSync && first.CompareAndSwap(true, false) {
			entered <- struct{}{}
			<-gate
		}
	}}
	w := openTestWAL(t, cfg)
	l := mustOpenLog(t, w, "log")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.AppendSync([]byte("leader"))
	}()
	<-entered // the leader is mid-flush, holding the disk

	wg.Add(followers)
	for i := 0; i < followers; i++ {
		go func(i int) {
			defer wg.Done()
			l.AppendSync([]byte(fmt.Sprintf("follower-%d", i)))
		}(i)
	}
	// Wait until every follower has appended and is parked behind the
	// syncing leader.
	deadline := time.Now().Add(5 * time.Second)
	for l.VolatileLen() < followers {
		if time.Now().After(deadline) {
			t.Fatalf("followers never queued: volatile=%d", l.VolatileLen())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := w.SyncCount(); got > 3 {
		t.Fatalf("group commit used %d fsyncs for %d concurrent callers, want <= 3", got, followers+1)
	}
	_, recs, _ := l.Recover()
	if len(recs) != followers+1 {
		t.Fatalf("recovered %d records, want %d", len(recs), followers+1)
	}
}

func TestWALNoGroupCommitOneFsyncPerCall(t *testing.T) {
	w := openTestWAL(t, WALConfig{NoGroupCommit: true})
	l := mustOpenLog(t, w, "log")
	for i := 0; i < 10; i++ {
		l.AppendSync([]byte("op"))
	}
	if got := w.SyncCount(); got != 10 {
		t.Fatalf("naive mode used %d fsyncs for 10 calls, want 10", got)
	}
}

func TestWALSimulatedCrashDropsVolatile(t *testing.T) {
	// In-process Crash (dst worlds run WAL-backed nodes in one process)
	// must behave exactly like the simulated disk: volatile gone,
	// durable intact, sequence numbers still strictly increasing.
	w := openTestWAL(t, WALConfig{})
	l := mustOpenLog(t, w, "log")
	l.AppendSync([]byte("durable"))
	l.Append([]byte("volatile"))
	w.Crash()
	if got := l.VolatileLen(); got != 0 {
		t.Fatalf("VolatileLen after crash = %d", got)
	}
	seq := l.AppendSync([]byte("next"))
	if seq != 2 {
		t.Fatalf("post-crash seq = %d, want 2", seq)
	}
	w2 := reopen(t, w, WALConfig{})
	_, recs, _ := mustOpenLog(t, w2, "log").Recover()
	if len(recs) != 2 || string(recs[0].Data) != "durable" || string(recs[1].Data) != "next" {
		t.Fatalf("records = %v", recs)
	}
}

func TestLogNameEscapeRoundTrip(t *testing.T) {
	for _, name := range []string{"bank_branch-2", "_catalog", "a/b", "..", "%41", "weird name!"} {
		esc := escapeLogName(name)
		if strings.ContainsAny(esc, "/\\") || esc == "." || esc == ".." {
			t.Fatalf("escape(%q) = %q is not a safe file name", name, esc)
		}
		if got := unescapeLogName(esc); got != name {
			t.Fatalf("round trip %q -> %q -> %q", name, esc, got)
		}
	}
}

func TestSimStoreSeam(t *testing.T) {
	// The simulated disk satisfies the seam unchanged.
	s := NewSim(newTestDisk())
	if s.Persistent() {
		t.Fatal("simulated storage must not claim persistence")
	}
	l, err := s.OpenLog("x")
	if err != nil {
		t.Fatal(err)
	}
	l.AppendSync([]byte("one"))
	l.Append([]byte("two"))
	s.Crash()
	_, recs, err := l.Recover()
	if err != ErrNoCheckpoint {
		t.Fatalf("err = %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("records = %v", recs)
	}
	if names := s.LogNames(); len(names) != 1 || names[0] != "x" {
		t.Fatalf("LogNames = %v", names)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
