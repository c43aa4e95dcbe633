package durable_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/replica"
	"repro/internal/vtime"
)

// backend is one Log implementation under the shared contract. open
// returns a fresh store whose crash windows call crash (may be nil), plus
// restart: the store a process restarted after a crash
// sees — volatile state gone, whatever reached the device intact.
type backend struct {
	name string
	open func(t *testing.T, crash fault.Hook) (st durable.Store, restart func() durable.Store)
}

func newMem(crash fault.Hook) *durable.Mem {
	return durable.NewMem(vtime.NewReal(), durable.MemConfig{Crash: crash})
}

var backends = []backend{
	{"Mem", func(t *testing.T, crash fault.Hook) (durable.Store, func() durable.Store) {
		m := newMem(crash)
		return m, func() durable.Store { m.Crash(); return m }
	}},
	// A WAL restart is kill -9: the old handle is abandoned unclosed and
	// a new one scans the directory.
	{"WAL", func(t *testing.T, crash fault.Hook) (durable.Store, func() durable.Store) {
		dir := t.TempDir()
		open := func(cfg durable.WALConfig) durable.Store {
			w, err := durable.OpenWAL(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		return open(durable.WALConfig{Crash: crash}),
			func() durable.Store { return open(durable.WALConfig{}) }
	}},
	// An unattached replica member: repLog stages, forces and passes
	// through with nobody to ship to.
	{"repLog", func(t *testing.T, crash fault.Hook) (durable.Store, func() durable.Store) {
		st, err := replica.NewStore(newMem(crash), replica.Config{Group: "g", Self: "m1", Members: []string{"m1", "m2", "m3"}})
		if err != nil {
			t.Fatal(err)
		}
		return st, func() durable.Store { st.Crash(); return st }
	}},
}

func openLog(t *testing.T, st durable.Store, name string) durable.Log {
	t.Helper()
	l, err := st.OpenLog(name)
	if err != nil {
		t.Fatalf("OpenLog(%s): %v", name, err)
	}
	return l
}

// wantRecovered asserts what Recover returns: the checkpoint ("" means
// ErrNoCheckpoint) and the records as "seq:data".
func wantRecovered(t *testing.T, l durable.Log, cp string, recs ...string) {
	t.Helper()
	gotCP, gotRecs, err := l.Recover()
	if cp == "" && err != durable.ErrNoCheckpoint {
		t.Fatalf("Recover err = %v, want ErrNoCheckpoint", err)
	}
	if cp != "" && (err != nil || string(gotCP) != cp) {
		t.Fatalf("Recover checkpoint = %q, %v; want %q", gotCP, err, cp)
	}
	got := make([]string, len(gotRecs))
	for i, r := range gotRecs {
		got[i] = fmt.Sprintf("%d:%s", r.Seq, r.Data)
	}
	if strings.Join(got, " ") != strings.Join(recs, " ") {
		t.Fatalf("Recover records = %v, want %v", got, recs)
	}
}

// logContract is the Log contract every backend answers to, one case per
// clause. Each case gets a fresh store and a log named "app" on it.
var logContract = []struct {
	name string
	run  func(t *testing.T, st durable.Store, l durable.Log, restart func() durable.Store)
}{
	{"append is volatile until sync", func(t *testing.T, st durable.Store, l durable.Log, restart func() durable.Store) {
		if seq := l.Append([]byte("op1")); seq != 1 {
			t.Fatalf("first Append = %d, want 1", seq)
		}
		if l.VolatileLen() != 1 || l.DurableLen() != 0 || l.LastDurableSeq() != 0 {
			t.Fatalf("volatile=%d durable=%d last=%d, want 1/0/0", l.VolatileLen(), l.DurableLen(), l.LastDurableSeq())
		}
		wantRecovered(t, openLog(t, restart(), "app"), "")
	}},
	{"sync makes the batch durable", func(t *testing.T, st durable.Store, l durable.Log, restart func() durable.Store) {
		l.Append([]byte("op1"))
		l.Append([]byte("op2"))
		l.Sync()
		if l.VolatileLen() != 0 || l.DurableLen() != 2 || l.LastDurableSeq() != 2 {
			t.Fatalf("volatile=%d durable=%d last=%d, want 0/2/2", l.VolatileLen(), l.DurableLen(), l.LastDurableSeq())
		}
		if seq := l.AppendSync([]byte("op3")); seq != 3 || l.DurableLen() != 3 {
			t.Fatalf("AppendSync = %d with %d durable, want 3 and 3", seq, l.DurableLen())
		}
		wantRecovered(t, openLog(t, restart(), "app"), "", "1:op1", "2:op2", "3:op3")
	}},
	{"crash drops only the volatile tail and gives its numbers back", func(t *testing.T, st durable.Store, l durable.Log, _ func() durable.Store) {
		l.AppendSync([]byte("kept1"))
		l.AppendSync([]byte("kept2"))
		l.Append([]byte("lost"))
		st.Crash()
		if l.VolatileLen() != 0 {
			t.Fatalf("VolatileLen after crash = %d", l.VolatileLen())
		}
		if seq := l.AppendSync([]byte("next")); seq != 3 {
			t.Fatalf("post-crash seq = %d, want 3 (continue from the durable tail)", seq)
		}
		wantRecovered(t, l, "", "1:kept1", "2:kept2", "3:next")
	}},
	{"neither append nor recover aliases a buffer", func(t *testing.T, st durable.Store, l durable.Log, _ func() durable.Store) {
		buf := []byte("orig")
		l.AppendSync(buf)
		buf[0] = 'X'
		l.Checkpoint([]byte("cp"), 0)
		cp, recs, _ := l.Recover()
		cp[0], recs[0].Data[0] = 'X', 'X'
		wantRecovered(t, l, "cp", "1:orig")
	}},
	{"a record scratch may be overwritten as soon as append returns", func(t *testing.T, st durable.Store, l durable.Log, restart func() durable.Store) {
		// How guardians log: every record is encoded into one reused
		// buffer, the next one over the last before anything is synced.
		scratch := append(make([]byte, 0, 16), "first"...)
		l.Append(scratch)
		scratch = append(scratch[:0], "second"...)
		l.Append(scratch)
		for i := range scratch[:cap(scratch)] {
			scratch[:cap(scratch)][i] = 'X'
		}
		l.Sync()
		wantRecovered(t, l, "", "1:first", "2:second")
		wantRecovered(t, openLog(t, restart(), "app"), "", "1:first", "2:second")
	}},
	{"a checkpoint state may be overwritten as soon as Checkpoint returns", func(t *testing.T, st durable.Store, l durable.Log, restart func() durable.Store) {
		// How a branch checkpoints: every state is written into one reused
		// buffer, the next one over the last.
		l.AppendSync([]byte("a"))
		state := append(make([]byte, 0, 16), "state@1"...)
		l.Checkpoint(state, 1)
		for i := range state[:cap(state)] {
			state[:cap(state)][i] = 'X'
		}
		l.AppendSync([]byte("b"))
		wantRecovered(t, l, "state@1", "2:b")
		l = openLog(t, restart(), "app")
		wantRecovered(t, l, "state@1", "2:b")
		state = append(state[:0], "state@2"...)
		l.Checkpoint(state, 2)
		state[0] = 'X'
		wantRecovered(t, l, "state@2")
	}},
	{"checkpoint folds records at or below its watermark", func(t *testing.T, st durable.Store, l durable.Log, restart func() durable.Store) {
		for i := 1; i <= 10; i++ {
			l.AppendSync([]byte{'a' + byte(i)})
		}
		l.Checkpoint([]byte("state@7"), 7)
		if l.DurableLen() != 3 || l.LastDurableSeq() != 10 {
			t.Fatalf("durable=%d last=%d after checkpoint, want 3/10", l.DurableLen(), l.LastDurableSeq())
		}
		l.Checkpoint([]byte("state@10"), 10)
		if l.DurableLen() != 0 || l.LastDurableSeq() != 10 {
			t.Fatalf("durable=%d last=%d after a covering checkpoint, want 0 and the watermark", l.DurableLen(), l.LastDurableSeq())
		}
		l = openLog(t, restart(), "app")
		wantRecovered(t, l, "state@10")
		if seq := l.AppendSync([]byte("k")); seq != 11 {
			t.Fatalf("seq after a covering checkpoint and restart = %d, want 11", seq)
		}
	}},
	{"skip raises the counter and never lowers it", func(t *testing.T, st durable.Store, l durable.Log, _ func() durable.Store) {
		l.AppendSync([]byte("a"))
		l.Checkpoint([]byte("shipped@40"), 40) // a replica installing a shipped checkpoint
		l.SkipTo(40)
		l.SkipTo(7)
		if seq := l.AppendSync([]byte("b")); seq != 41 {
			t.Fatalf("Append after SkipTo(40) = %d, want 41", seq)
		}
		wantRecovered(t, l, "shipped@40", "41:b")
	}},
	{"a crash after a checkpoint ahead of the tail numbers past the watermark", func(t *testing.T, st durable.Store, l durable.Log, restart func() durable.Store) {
		l.AppendSync([]byte("a"))
		l.Checkpoint([]byte("cp@10"), 10)
		st.Crash()
		if seq := l.AppendSync([]byte("b")); seq != 11 {
			t.Fatalf("AppendSync after a crash = %d, want 11 (the watermark is the durable tail)", seq)
		}
		if got := l.LastDurableSeq(); got != 11 {
			t.Fatalf("LastDurableSeq = %d, want 11", got)
		}
		wantRecovered(t, openLog(t, restart(), "app"), "cp@10", "11:b")
	}},
	{"a crash undoes a skip, which wrote nothing", func(t *testing.T, st durable.Store, l durable.Log, restart func() durable.Store) {
		l.AppendSync([]byte("a"))
		l.SkipTo(40)
		st.Crash()
		if seq := l.Append([]byte("b")); seq != 2 {
			t.Fatalf("Append after SkipTo(40) and a crash = %d, want 2 (as a reopen numbers it)", seq)
		}
		l.Sync()
		wantRecovered(t, openLog(t, restart(), "app"), "", "1:a", "2:b")
	}},
	{"a sync after a skip forces what was appended before it", func(t *testing.T, st durable.Store, l durable.Log, restart func() durable.Store) {
		l.Append([]byte("a"))
		l.SkipTo(40)
		l.Sync()
		if l.VolatileLen() != 0 || l.LastDurableSeq() != 1 {
			t.Fatalf("volatile=%d last=%d after Sync, want 0/1", l.VolatileLen(), l.LastDurableSeq())
		}
		wantRecovered(t, openLog(t, restart(), "app"), "", "1:a")
	}},
	{"truncate drops the suffix durably and renumbers from the cut", func(t *testing.T, st durable.Store, l durable.Log, restart func() durable.Store) {
		for _, d := range []string{"a", "b", "c", "d", "e"} {
			l.AppendSync([]byte(d))
		}
		l.Checkpoint([]byte("state@1"), 1)
		l.Append([]byte("volatile"))
		l.Truncate(4)
		if l.VolatileLen() != 0 || l.DurableLen() != 2 || l.LastDurableSeq() != 3 {
			t.Fatalf("volatile=%d durable=%d last=%d after Truncate(4), want 0/2/3", l.VolatileLen(), l.DurableLen(), l.LastDurableSeq())
		}
		l.Truncate(9) // past the end: nothing to drop
		if seq := l.AppendSync([]byte("D")); seq != 4 {
			t.Fatalf("Append after Truncate(4) = %d, want 4", seq)
		}
		wantRecovered(t, l, "state@1", "2:b", "3:c", "4:D")
		wantRecovered(t, openLog(t, restart(), "app"), "state@1", "2:b", "3:c", "4:D")
		defer func() {
			if recover() == nil {
				t.Fatal("Truncate at the checkpoint watermark did not panic")
			}
		}()
		l.Truncate(1)
	}},
	{"concurrent appends keep their bytes across syncs, a truncate and a crash", func(t *testing.T, st durable.Store, l durable.Log, restart func() durable.Store) {
		// Records of many sizes share the log's blocks (some too large for
		// one) while other appenders sync; each is checked against the
		// bytes appended at its seq once the log has been cut, crashed,
		// reopened and appended to again.
		var mu sync.Mutex
		want := map[uint64]string{}
		phase := func(l durable.Log, p, n int) {
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var scratch []byte
					for i := 0; i < n; i++ {
						size := 1 + (i*37+g*11)%200
						if i%50 == 49 {
							size = 1500
						}
						scratch = fmt.Appendf(scratch[:0], "p%d g%d i%d:", p, g, i)
						for len(scratch) < size {
							scratch = append(scratch, byte('a'+(i+g+len(scratch))%26))
						}
						seq := l.Append(scratch)
						mu.Lock()
						want[seq] = string(scratch)
						mu.Unlock()
						for j := range scratch {
							scratch[j] = 'X'
						}
						if i%5 == g || i == n-1 {
							l.Sync()
						}
					}
				}(g)
			}
			wg.Wait()
		}
		forget := func(from uint64) {
			for seq := range want {
				if seq >= from {
					delete(want, seq)
				}
			}
		}
		phase(l, 1, 200)
		l.Append([]byte("volatile at the cut"))
		l.Truncate(500)
		forget(500)
		phase(l, 2, 200)
		l.Append([]byte("volatile at the crash"))
		l = openLog(t, restart(), "app")
		forget(l.LastDurableSeq() + 1)
		phase(l, 3, 100)
		_, recs, _ := l.Recover()
		if len(recs) != len(want) {
			t.Fatalf("recovered %d records, want %d", len(recs), len(want))
		}
		for i, r := range recs {
			if r.Seq != uint64(i+1) || !bytes.Equal(r.Data, []byte(want[r.Seq])) {
				t.Fatalf("record %d is seq %d %q, want seq %d %q", i, r.Seq, r.Data, i+1, want[uint64(i+1)])
			}
		}
	}},
	{"logs are independent and reopen to the same log", func(t *testing.T, st durable.Store, l durable.Log, _ func() durable.Store) {
		other := openLog(t, st, "another")
		l.AppendSync([]byte("a"))
		other.AppendSync([]byte("b"))
		wantRecovered(t, openLog(t, st, "app"), "", "1:a")
		wantRecovered(t, openLog(t, st, "another"), "", "1:b")
		var names []string
		for _, n := range st.LogNames() {
			if !strings.HasPrefix(n, "_") { // a replica member keeps bookkeeping logs of its own
				names = append(names, n)
			}
		}
		if strings.Join(names, ",") != "another,app" {
			t.Fatalf("LogNames = %v, want [another app]", names)
		}
	}},
}

func TestLogContract(t *testing.T) {
	for _, b := range backends {
		for _, c := range logContract {
			b, c := b, c
			t.Run(b.name+"/"+c.name, func(t *testing.T) {
				st, restart := b.open(t, nil)
				c.run(t, st, openLog(t, st, "app"), restart)
			})
		}
	}
}

// TestLogContractMidCheckpointCrash covers the window every
// write-new-then-rename checkpoint has: the process dies after the new
// checkpoint is installed but before the records it folded in are
// truncated. A restart then finds both on the device and must filter the
// stale records out, or their effects apply twice.
func TestLogContractMidCheckpointCrash(t *testing.T) {
	for _, b := range backends {
		b := b
		t.Run(b.name, func(t *testing.T) {
			died := ""
			st, restart := b.open(t, func(point, log string) {
				if point != fault.MidCheckpoint {
					return
				}
				died = log
				panic("crash between checkpoint install and truncation")
			})
			l := openLog(t, st, "app")
			for i := 1; i <= 5; i++ {
				l.AppendSync([]byte(fmt.Sprintf("rec%d", i)))
			}
			func() {
				defer func() { recover() }() // the modeled process death
				l.Checkpoint([]byte("state@3"), 3)
			}()
			if died != "app" {
				t.Fatalf("mid-checkpoint hook fired for %q, want app", died)
			}
			wantRecovered(t, openLog(t, restart(), "app"), "state@3", "4:rec4", "5:rec5")
		})
	}
}

// TestLogAppendAllocCeiling pins what the log itself allocates per
// record: Append copies into shared 4 KiB blocks, the volatile tail reuses
// the last batch's array and the WAL reuses its frame buffer, so a
// thousand 64-byte records each forced alone cost about one block per
// 4 KiB of records, not an allocation or three apiece.
func TestLogAppendAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const records, size = 1000, 64
	// One block per 4 KiB (16; 18 measured on each backend), plus the
	// durable mirror's growth.
	const ceiling = records*size/(4<<10) + 1 + 8
	rec := make([]byte, size)
	for _, b := range backends {
		st, _ := b.open(t, nil)
		l := openLog(t, st, "app")
		n := testing.AllocsPerRun(1, func() {
			for i := 0; i < records; i++ {
				l.Append(rec)
				l.Sync()
			}
		})
		t.Logf("%s: %d appends and syncs of %d bytes allocate %.0f times", b.name, records, size, n)
		if n > ceiling {
			t.Errorf("%s: %d appends and syncs of %d bytes allocate %.0f times, ceiling %d", b.name, records, size, n, ceiling)
		}
	}
}
