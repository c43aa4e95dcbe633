package durable

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/vtime"
)

// The golden fate traces in testdata/fate_*.txt were recorded from the
// tree BEFORE the in-memory log owned its faults — from
// Wrap(NewSim(stable.NewDisk(...))), three stacked layers — by running
// fateScript below against that stack. Mem must reproduce them byte for
// byte: same fault per Sync, same cut, same sequence numbers, same
// recovery view, same counters. They are recordings, not expectations to
// regenerate: if one stops matching, the seeded fate stream moved and the
// dst seed corpus moved with it.
type fateCase struct {
	name   string
	faults FaultConfig
	burst  bool // drive SetFaultScale through a burst and a quiet window
}

func fateCases() []fateCase {
	var cases []fateCase
	for _, seed := range []int64{1, 24, 1979} {
		cases = append(cases,
			fateCase{name: fmt.Sprintf("sync_fail_%d", seed), faults: FaultConfig{Seed: seed, SyncFailRate: 0.3}},
			fateCase{name: fmt.Sprintf("short_write_%d", seed), faults: FaultConfig{Seed: seed, ShortWriteRate: 0.3}},
			fateCase{name: fmt.Sprintf("corrupt_tail_%d", seed), faults: FaultConfig{Seed: seed, CorruptTailRate: 0.3}},
			fateCase{name: fmt.Sprintf("burst_%d", seed), burst: true,
				faults: FaultConfig{Seed: seed, SyncFailRate: 0.05, ShortWriteRate: 0.05, CorruptTailRate: 0.05}},
		)
	}
	return cases
}

// fateStore is what the script drives: a Store with the fault surface.
type fateStore interface {
	Store
	Reporter
	SetFaultScale(float64)
	InjectedStats() FaultStats
}

// fateScript drives 120 steps over two logs of one store — batches of
// one to four records, checkpoints, a shipped-checkpoint install with
// SkipTo, crashes with a volatile tail — from a script stream of its
// own, and writes one line per observable.
func fateScript(c fateCase, open func(FaultConfig) fateStore) []byte {
	var out bytes.Buffer
	fault := ""
	cfg := c.faults
	cfg.OnFault = func(log, f string) { fault = log + ":" + f }
	st := open(cfg)

	names := []string{"a", "b"}
	logs := make(map[string]Log)
	for _, n := range names {
		l, err := st.OpenLog(n)
		if err != nil {
			panic(err)
		}
		logs[n] = l
	}
	script := rand.New(rand.NewSource(c.faults.Seed*31 + 7))
	payload := 0
	watermark := make(map[string]uint64)
	appendBatch := func(name string, n int) []uint64 {
		seqs := make([]uint64, n)
		for i := range seqs {
			payload++
			seqs[i] = logs[name].Append([]byte(fmt.Sprintf("%s-%d", name, payload)))
		}
		return seqs
	}
	for step := 0; step < 120; step++ {
		if c.burst {
			switch step {
			case 30:
				st.SetFaultScale(8)
				fmt.Fprintf(&out, "%03d scale 8\n", step)
			case 60:
				st.SetFaultScale(0)
				fmt.Fprintf(&out, "%03d scale 0\n", step)
			case 90:
				st.SetFaultScale(1)
				fmt.Fprintf(&out, "%03d scale 1\n", step)
			}
		}
		name := names[script.Intn(len(names))]
		l := logs[name]
		switch op := script.Intn(20); {
		case op < 14: // a batch, forced
			seqs := appendBatch(name, 1+script.Intn(4))
			before := l.LastDurableSeq()
			fault = ""
			l.Sync()
			fmt.Fprintf(&out, "%03d sync %s seqs=%v fault=%q lds=%d->%d durable=%d volatile=%d\n",
				step, name, seqs, fault, before, l.LastDurableSeq(), l.DurableLen(), l.VolatileLen())
		case op < 15: // an empty sync draws no fate
			fault = ""
			l.Sync()
			fmt.Fprintf(&out, "%03d sync %s empty fault=%q\n", step, name, fault)
		case op < 17: // checkpoint at or a little below the durable tail
			upTo := l.LastDurableSeq()
			if back := uint64(script.Intn(3)); upTo >= watermark[name]+back {
				upTo -= back // never below the checkpoint already installed
			}
			watermark[name] = upTo
			l.Checkpoint([]byte(fmt.Sprintf("cp-%s@%d", name, upTo)), upTo)
			fmt.Fprintf(&out, "%03d checkpoint %s upTo=%d lds=%d durable=%d\n",
				step, name, upTo, l.LastDurableSeq(), l.DurableLen())
		case op < 18: // a shipped checkpoint ahead of the local tail
			upTo := l.LastDurableSeq() + 1 + uint64(script.Intn(3))
			watermark[name] = upTo
			l.Checkpoint([]byte(fmt.Sprintf("ship-%s@%d", name, upTo)), upTo)
			ok := SkipTo(l, upTo)
			fmt.Fprintf(&out, "%03d install %s upTo=%d skip=%v lds=%d durable=%d\n",
				step, name, upTo, ok, l.LastDurableSeq(), l.DurableLen())
		default: // the node dies with a volatile tail on both logs
			sa := appendBatch("a", script.Intn(3))
			sb := appendBatch("b", script.Intn(3))
			st.Crash()
			fmt.Fprintf(&out, "%03d crash a=%v b=%v lds=%d,%d volatile=%d,%d\n", step, sa, sb,
				logs["a"].LastDurableSeq(), logs["b"].LastDurableSeq(),
				logs["a"].VolatileLen(), logs["b"].VolatileLen())
		}
	}
	for _, n := range names {
		l := logs[n]
		cp, recs, err := l.Recover()
		fmt.Fprintf(&out, "recover %s cp=%q err=%v durable=%d lds=%d\n", n, cp, err, l.DurableLen(), l.LastDurableSeq())
		for _, r := range recs {
			fmt.Fprintf(&out, "  %d %s\n", r.Seq, r.Data)
		}
		rep, ok := st.Report(n)
		fmt.Fprintf(&out, "report %s %+v ok=%v\n", n, rep, ok)
	}
	fmt.Fprintf(&out, "stats %+v syncs=%d\n", st.InjectedStats(), st.SyncCount())
	return out.Bytes()
}

func TestMemReproducesParentFateTrace(t *testing.T) {
	for _, c := range fateCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "fate_"+c.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			got := fateScript(c, func(f FaultConfig) fateStore {
				return NewMem(vtime.NewReal(), MemConfig{FaultConfig: f})
			})
			if !bytes.Equal(got, want) {
				t.Fatalf("fate trace diverged from the parent recording\n%s", firstDiff(got, want))
			}
		})
	}
}

func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// TestFaultedSyncSleepsOutsideTheLock pins the bug the merge exposed:
// the wrapper held its log lock across the inner Sync, which parks in
// clock.Sleep(SyncDelay) — so every Append on that log waited out a
// forced write it was not part of. Mem decides the fate and moves the
// records under the lock, sleeps outside it, and calls OnFault last.
func TestFaultedSyncSleepsOutsideTheLock(t *testing.T) {
	clock := vtime.NewSim(time.Unix(0, 0))
	faulted := make(chan string, 1)
	m := NewMem(clock, MemConfig{
		SyncDelay: 5 * time.Millisecond,
		FaultConfig: FaultConfig{
			Seed:         1,
			SyncFailRate: 1,
			OnFault:      func(_, fault string) { faulted <- fault },
		},
	})
	l, _ := m.OpenLog("g")
	l.Append([]byte("lost"))
	synced := make(chan struct{})
	go func() {
		l.Sync()
		close(synced)
	}()
	for clock.PendingTimers() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	// The faulted Sync is parked in its delay; the log must not be.
	appended := make(chan uint64, 1)
	go func() { appended <- l.Append([]byte("next")) }()
	select {
	case seq := <-appended:
		if seq != 1 {
			t.Fatalf("Append during the sleeping Sync returned seq %d, want 1 (the lost batch gave its number back)", seq)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Append blocked behind a Sync that is only sleeping out its delay")
	}
	select {
	case f := <-faulted:
		t.Fatalf("OnFault(%s) ran before the forced write's delay elapsed", f)
	case <-synced:
		t.Fatal("Sync returned before its delay elapsed")
	default:
	}
	clock.Advance(5 * time.Millisecond)
	select {
	case <-synced:
	case <-time.After(2 * time.Second):
		t.Fatal("Sync did not return after its delay")
	}
	if f := <-faulted; f != FaultSyncFail {
		t.Fatalf("OnFault got %q", f)
	}
	if got := l.VolatileLen(); got != 1 {
		t.Fatalf("VolatileLen = %d, want the one record appended during the sleep", got)
	}
}
