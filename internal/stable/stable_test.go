package stable

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/vtime"
)

// These tests drive durable.Mem through the alias names the benchmark
// imports; the cross-backend contract lives in internal/durable.

func newDisk() *Disk { return NewDisk(vtime.NewReal(), DiskConfig{}) }

func openLog(d *Disk, name string) durable.Log {
	l, _ := d.OpenLog(name) // cannot fail on the in-memory disk
	return l
}

func TestAppendIsVolatileUntilSync(t *testing.T) {
	d := newDisk()
	l := openLog(d, "g1")
	l.Append([]byte("op1"))
	if l.VolatileLen() != 1 || l.DurableLen() != 0 {
		t.Fatalf("volatile=%d durable=%d, want 1/0", l.VolatileLen(), l.DurableLen())
	}
	d.Crash()
	_, recs, _ := l.Recover()
	if len(recs) != 0 {
		t.Fatalf("unsynced record survived crash: %v", recs)
	}
}

func TestSyncMakesDurable(t *testing.T) {
	d := newDisk()
	l := openLog(d, "g1")
	l.Append([]byte("op1"))
	l.Sync()
	d.Crash()
	_, recs, err := l.Recover()
	if err != ErrNoCheckpoint {
		t.Fatalf("Recover err = %v, want ErrNoCheckpoint", err)
	}
	if len(recs) != 1 || string(recs[0].Data) != "op1" {
		t.Fatalf("durable records = %v", recs)
	}
}

func TestAppendSyncShorthand(t *testing.T) {
	d := newDisk()
	l := openLog(d, "g")
	seq := l.AppendSync([]byte("x"))
	if seq != 1 {
		t.Fatalf("seq = %d, want 1", seq)
	}
	if l.DurableLen() != 1 || l.VolatileLen() != 0 {
		t.Fatal("AppendSync did not reach durable storage")
	}
}

func TestSequenceNumbersMonotonic(t *testing.T) {
	d := newDisk()
	l := openLog(d, "g")
	var last uint64
	for i := 0; i < 100; i++ {
		seq := l.Append([]byte{byte(i)})
		if seq <= last {
			t.Fatalf("seq %d after %d", seq, last)
		}
		last = seq
	}
}

func TestCrashDropsOnlyVolatileTail(t *testing.T) {
	d := newDisk()
	l := openLog(d, "g")
	l.AppendSync([]byte("durable1"))
	l.AppendSync([]byte("durable2"))
	l.Append([]byte("lost"))
	d.Crash()
	_, recs, _ := l.Recover()
	if len(recs) != 2 {
		t.Fatalf("got %d records after crash, want 2", len(recs))
	}
	if string(recs[0].Data) != "durable1" || string(recs[1].Data) != "durable2" {
		t.Fatalf("records = %q, %q", recs[0].Data, recs[1].Data)
	}
}

func TestRecordDataIsCopied(t *testing.T) {
	d := newDisk()
	l := openLog(d, "g")
	buf := []byte("abc")
	l.AppendSync(buf)
	buf[0] = 'z'
	_, recs, _ := l.Recover()
	if string(recs[0].Data) != "abc" {
		t.Fatal("log record aliases caller's buffer")
	}
}

func TestCheckpointDiscardsFoldedRecords(t *testing.T) {
	d := newDisk()
	l := openLog(d, "g")
	for i := 0; i < 10; i++ {
		l.AppendSync([]byte{byte(i)})
	}
	l.Checkpoint([]byte("state@7"), 7)
	if l.DurableLen() != 3 {
		t.Fatalf("DurableLen = %d after checkpoint, want 3", l.DurableLen())
	}
	cp, recs, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if string(cp) != "state@7" {
		t.Fatalf("checkpoint = %q", cp)
	}
	if len(recs) != 3 || recs[0].Seq != 8 {
		t.Fatalf("post-checkpoint records = %v", recs)
	}
}

func TestCheckpointSurvivesCrash(t *testing.T) {
	d := newDisk()
	l := openLog(d, "g")
	l.AppendSync([]byte("a"))
	l.Checkpoint([]byte("cp"), 1)
	d.Crash()
	cp, recs, err := l.Recover()
	if err != nil || string(cp) != "cp" || len(recs) != 0 {
		t.Fatalf("after crash: cp=%q recs=%v err=%v", cp, recs, err)
	}
}

func TestRecoverReturnsCopies(t *testing.T) {
	d := newDisk()
	l := openLog(d, "g")
	l.AppendSync([]byte("orig"))
	l.Checkpoint([]byte("cp"), 0)
	cp, recs, _ := l.Recover()
	cp[0] = 'X'
	recs[0].Data[0] = 'X'
	cp2, recs2, _ := l.Recover()
	if string(cp2) != "cp" || string(recs2[0].Data) != "orig" {
		t.Fatal("Recover exposed internal buffers")
	}
}

func TestLogsIndependentPerGuardian(t *testing.T) {
	d := newDisk()
	l1 := openLog(d, "guardian-a")
	l2 := openLog(d, "guardian-b")
	l1.AppendSync([]byte("a"))
	l2.AppendSync([]byte("b"))
	if _, recs, _ := l1.Recover(); len(recs) != 1 || string(recs[0].Data) != "a" {
		t.Fatal("log a polluted")
	}
	if _, recs, _ := l2.Recover(); len(recs) != 1 || string(recs[0].Data) != "b" {
		t.Fatal("log b polluted")
	}
	names := d.LogNames()
	if len(names) != 2 || names[0] != "guardian-a" || names[1] != "guardian-b" {
		t.Fatalf("LogNames = %v", names)
	}
}

func TestOpenLogIdempotent(t *testing.T) {
	d := newDisk()
	l1 := openLog(d, "g")
	l1.AppendSync([]byte("x"))
	l2 := openLog(d, "g")
	if l2.DurableLen() != 1 {
		t.Fatal("re-opened log lost records")
	}
}

func TestLastDurableSeq(t *testing.T) {
	d := newDisk()
	l := openLog(d, "g")
	if l.LastDurableSeq() != 0 {
		t.Fatal("empty log LastDurableSeq != 0")
	}
	l.AppendSync([]byte("a"))
	l.AppendSync([]byte("b"))
	if l.LastDurableSeq() != 2 {
		t.Fatalf("LastDurableSeq = %d, want 2", l.LastDurableSeq())
	}
	l.Checkpoint(nil, 2)
	if l.LastDurableSeq() != 2 {
		t.Fatalf("LastDurableSeq after checkpoint = %d, want 2 (watermark)", l.LastDurableSeq())
	}
}

func TestSyncDelayCharged(t *testing.T) {
	clock := vtime.NewSim(time.Unix(0, 0))
	d := NewDisk(clock, DiskConfig{SyncDelay: 5 * time.Millisecond})
	l := openLog(d, "g")
	done := make(chan struct{})
	go func() {
		l.AppendSync([]byte("x"))
		close(done)
	}()
	for clock.PendingTimers() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	clock.Advance(5 * time.Millisecond)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("AppendSync did not complete after charging SyncDelay")
	}
	if d.SyncCount() != 1 {
		t.Fatalf("SyncCount = %d, want 1", d.SyncCount())
	}
}

func TestConcurrentAppends(t *testing.T) {
	d := newDisk()
	l := openLog(d, "g")
	var wg sync.WaitGroup
	const n = 50
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l.AppendSync([]byte(fmt.Sprintf("op%d", i)))
		}(i)
	}
	wg.Wait()
	_, recs, _ := l.Recover()
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
	seen := make(map[uint64]bool)
	for _, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}

// The permanence property the paper demands (E7's unit-level core):
// whatever protocol step the crash lands on, an acknowledged operation is
// recoverable iff it was synced before the ack.
func TestPermanenceAcrossEveryCrashPoint(t *testing.T) {
	for crashAt := 0; crashAt < 3; crashAt++ {
		d := newDisk()
		l := openLog(d, "flight")
		acked := false
		// Protocol: append, sync, ack. Crash injected at each step.
		l.Append([]byte("reserve f22"))
		if crashAt == 0 {
			d.Crash()
		} else {
			l.Sync()
			if crashAt == 1 {
				d.Crash()
			} else {
				acked = true
				d.Crash()
			}
		}
		_, recs, _ := l.Recover()
		recovered := len(recs) == 1
		if acked && !recovered {
			t.Fatalf("crashAt=%d: acknowledged operation lost", crashAt)
		}
		if crashAt >= 1 && !recovered {
			t.Fatalf("crashAt=%d: synced record lost", crashAt)
		}
		if crashAt == 0 && recovered {
			t.Fatalf("crashAt=%d: unsynced record survived", crashAt)
		}
	}
}

// TestRecoverAfterMidCheckpointCrash covers the window every
// write-new-then-rename checkpoint implementation has: the process dies
// after the new checkpoint is durably installed but before the records
// it folded in are truncated. Recovery then sees both the checkpoint
// and stale records at or below its watermark on disk — and must filter
// the stale records out, or their effects apply twice.
func TestRecoverAfterMidCheckpointCrash(t *testing.T) {
	died := false
	d := NewDisk(vtime.NewReal(), DiskConfig{
		MidCheckpoint: func(log string) {
			if log != "acct" {
				t.Errorf("hook fired for log %q, want acct", log)
			}
			died = true
			panic("crash between checkpoint install and truncation")
		},
	})
	l := openLog(d, "acct")
	for i := 1; i <= 5; i++ {
		l.AppendSync([]byte(fmt.Sprintf("rec%d", i)))
	}

	func() {
		defer func() { recover() }() // the modeled process death
		l.Checkpoint([]byte("state@3"), 3)
	}()
	if !died {
		t.Fatal("mid-checkpoint hook never fired")
	}
	if l.DurableLen() != 5 {
		t.Fatalf("truncation ran despite the crash: %d durable records", l.DurableLen())
	}

	cp, recs, err := l.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if string(cp) != "state@3" {
		t.Fatalf("checkpoint = %q, want the installed state", cp)
	}
	if len(recs) != 2 || recs[0].Seq != 4 || recs[1].Seq != 5 {
		t.Fatalf("Recover returned %d records %v; want only seqs 4,5 above the watermark", len(recs), recs)
	}
}
