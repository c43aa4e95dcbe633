package durable

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/vtime"
)

// The TestWrapper* names predate the merge — the fault model used to be
// a Wrapper around the in-memory store — and are kept because the test
// floor pins them.

func newTestDisk() *Mem { return newFaultyMem(FaultConfig{}) }

func newFaultyMem(f FaultConfig) *Mem {
	return NewMem(vtime.NewReal(), MemConfig{FaultConfig: f})
}

// faultAt walks the seeded fate sequence until each fault kind has
// fired at least once, so the assertions below are deterministic
// without hard-coding rng draws.
func TestWrapperInjectsEveryFaultKind(t *testing.T) {
	w := newFaultyMem(FaultConfig{
		Seed:            7,
		SyncFailRate:    0.2,
		ShortWriteRate:  0.2,
		CorruptTailRate: 0.2,
	})
	l, err := w.OpenLog("log")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		l.AppendSync([]byte(fmt.Sprintf("op-%d", i)))
	}
	st := w.InjectedStats()
	if st.Syncs != 200 {
		t.Fatalf("Syncs = %d", st.Syncs)
	}
	if st.SyncsFailed == 0 || st.ShortWrites == 0 || st.CorruptedTails == 0 {
		t.Fatalf("not every fault kind fired: %+v", st)
	}
	// Recovery sees exactly the clean commits: total minus everything
	// any fault touched (single-record batches: each fault drops its
	// whole batch).
	_, recs, err := l.Recover()
	if err != ErrNoCheckpoint {
		t.Fatalf("Recover err = %v", err)
	}
	want := 200 - int(st.SyncsFailed+st.ShortWrites+st.CorruptedTails)
	if len(recs) != want {
		t.Fatalf("recovered %d records, want %d", len(recs), want)
	}
	rep, ok := w.Report("log")
	if !ok || !rep.TornTail || rep.Records != want {
		t.Fatalf("report = %+v ok=%v, want torn-tail report with %d live records", rep, ok, want)
	}
}

func TestWrapperDeterministicAcrossRuns(t *testing.T) {
	run := func() FaultStats {
		w := newFaultyMem(FaultConfig{
			Seed:            42,
			SyncFailRate:    0.3,
			ShortWriteRate:  0.1,
			CorruptTailRate: 0.1,
		})
		l, _ := w.OpenLog("log")
		for i := 0; i < 64; i++ {
			l.AppendSync([]byte("op"))
		}
		return w.InjectedStats()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different fates: %+v vs %+v", a, b)
	}
}

func TestWrapperShortWriteDropsBatchWhole(t *testing.T) {
	// A short write tears the batch's frame; recovery must reject the
	// batch WHOLE — the surviving prefix must not replay alone, or a
	// transfer's withdraw leg could outlive its deposit leg.
	var fired []string
	w := NewMem(vtime.NewReal(), MemConfig{
		FaultConfig: FaultConfig{Seed: 1, ShortWriteRate: 1.0}, // every sync tears
		Crash:       func(fault, _ string) { fired = append(fired, fault) },
	})
	l, _ := w.OpenLog("log")
	l.Append([]byte("withdraw"))
	l.Append([]byte("deposit"))
	l.Sync()
	if len(fired) != 1 || fired[0] != fault.ShortWrite {
		t.Fatalf("Crash calls = %v", fired)
	}
	_, recs, _ := l.Recover()
	if len(recs) != 0 {
		t.Fatalf("a torn batch leaked %d records into recovery: %v", len(recs), recs)
	}
	st := w.InjectedStats()
	if st.RecordsDropped != 2 {
		t.Fatalf("RecordsDropped = %d, want 2", st.RecordsDropped)
	}
}

func TestWrapperCleanPathUnchanged(t *testing.T) {
	// Zero rates: every fate drawn is clean.
	w := newFaultyMem(FaultConfig{Seed: 1})
	l, _ := w.OpenLog("log")
	for i := 0; i < 5; i++ {
		l.AppendSync([]byte(fmt.Sprintf("op-%d", i)))
	}
	l.Checkpoint([]byte("cp"), 3)
	cp, recs, err := l.Recover()
	if err != nil || string(cp) != "cp" {
		t.Fatalf("cp = %q, %v", cp, err)
	}
	if len(recs) != 2 || recs[0].Seq != 4 {
		t.Fatalf("records = %v", recs)
	}
	if got := l.LastDurableSeq(); got != 5 {
		t.Fatalf("LastDurableSeq = %d", got)
	}
	if w.Persistent() {
		t.Fatal("simulated storage must not claim persistence")
	}
}

func TestWrapperCrashDropsPending(t *testing.T) {
	w := newFaultyMem(FaultConfig{Seed: 1})
	l, _ := w.OpenLog("log")
	l.AppendSync([]byte("durable"))
	l.Append([]byte("pending"))
	if got := l.VolatileLen(); got != 1 {
		t.Fatalf("VolatileLen = %d", got)
	}
	w.Crash()
	if got := l.VolatileLen(); got != 0 {
		t.Fatalf("pending survived crash: %d", got)
	}
	_, recs, _ := l.Recover()
	if len(recs) != 1 || string(recs[0].Data) != "durable" {
		t.Fatalf("records = %v", recs)
	}
}

func TestWrapperCheckpointForgetsFoldedTaint(t *testing.T) {
	w := newFaultyMem(FaultConfig{Seed: 3, CorruptTailRate: 1.0})
	l, _ := w.OpenLog("log")
	l.AppendSync([]byte("damaged")) // committed then tainted
	// Checkpoint over the tainted record; the torn-tail report clears.
	l.Checkpoint([]byte("cp"), l.LastDurableSeq())
	rep, _ := w.Report("log")
	if rep.TornTail {
		t.Fatalf("taint survived a covering checkpoint: %+v", rep)
	}
	cp, recs, err := l.Recover()
	if err != nil || string(cp) != "cp" || len(recs) != 0 {
		t.Fatalf("Recover = %q %v %v", cp, recs, err)
	}
}
