package netsim

import (
	"bytes"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/vtime"
)

// The golden fate traces in testdata/fate_*.txt were recorded from the tree
// BEFORE netsim's fate draws moved into internal/fault, by running
// fateTrace below against the network as it then was. Network must
// reproduce them byte for byte: the same copies of the same packets, at the
// same virtual times, with the same bits flipped, and the same counters.
// They are recordings, not expectations to regenerate: if one stops
// matching, the seeded fate stream moved and the dst seed corpus moved with
// it.
type fateCase struct {
	name string
	cfg  Config
	link *Config // when set, the a→b override; sends then alternate b and c
}

func fateCases() []fateCase {
	var cases []fateCase
	for _, seed := range []int64{1, 24, 1979} {
		cases = append(cases,
			fateCase{name: fmt.Sprintf("loss_dup_%d", seed),
				cfg: Config{Seed: seed, LossRate: 0.3, DupRate: 0.3, BaseLatency: time.Millisecond}},
			fateCase{name: fmt.Sprintf("jitter_reorder_%d", seed),
				cfg: Config{Seed: seed, BaseLatency: time.Millisecond, Jitter: 700 * time.Microsecond, ReorderRate: 0.3}},
			fateCase{name: fmt.Sprintf("corrupt_%d", seed),
				cfg: Config{Seed: seed, CorruptRate: 0.3, DupRate: 0.3}},
			fateCase{name: fmt.Sprintf("bandwidth_latency_%d", seed),
				cfg: Config{Seed: seed, BaseLatency: 2 * time.Millisecond, BandwidthBps: 1 << 20,
					ReorderRate: 0.1, ReorderDelay: 5 * time.Millisecond}},
			fateCase{name: fmt.Sprintf("link_override_%d", seed),
				cfg: Config{Seed: seed, BaseLatency: time.Millisecond, Jitter: 200 * time.Microsecond, DupRate: 0.2},
				link: &Config{Seed: seed + 1000, LossRate: 0.4, CorruptRate: 0.2, ReorderRate: 0.2,
					BaseLatency: 3 * time.Millisecond}},
		)
	}
	return cases
}

// fateTrace sends 150 packets of varying sizes from one sender on the
// simulated clock, one at a time, and drains each before the next: for
// every send it writes the copies that arrived, where and when, and the bit
// each had flipped (-1 for none), then the final Counts.
func fateTrace(t *testing.T, c fateCase) []byte {
	t.Helper()
	start := time.Unix(0, 0)
	clock := vtime.NewSim(start)
	n := New(clock, c.cfg)
	defer n.Close()
	if c.link != nil {
		n.SetLink("a", "b", c.link)
	}
	var mu sync.Mutex
	var sent []byte
	var got []string
	recorder := func(to Addr) transport.Handler {
		return func(_ Addr, p []byte) {
			mu.Lock()
			defer mu.Unlock()
			bit := -1
			for i := range p {
				if x := p[i] ^ sent[i]; x != 0 {
					bit = i*8 + bits.TrailingZeros8(x)
				}
			}
			got = append(got, fmt.Sprintf(" %s@%v/%d/bit=%d", to, clock.Since(start), len(p), bit))
		}
	}
	n.Attach("a", func(Addr, []byte) {})
	n.Attach("b", recorder("b"))
	n.Attach("c", recorder("c"))

	var out bytes.Buffer
	for i := 0; i < 150; i++ {
		to := Addr("b")
		if c.link != nil && i%2 == 1 {
			to = "c"
		}
		p := make([]byte, 1+(i*37)%200)
		for j := range p {
			p[j] = byte(i + j)
		}
		mu.Lock()
		sent, got = p, got[:0]
		mu.Unlock()
		before, at := n.Counts(), clock.Since(start)
		if err := n.Send("a", to, p); err != nil {
			t.Fatal(err)
		}
		after := n.Counts()
		copies := 1 - int(after.Lost-before.Lost) + int(after.Duplicated-before.Duplicated)
		// A worker arms its timer only once it has handed over every copy
		// due, so the clock moves only while no handler runs.
		for deadline := time.Now().Add(5 * time.Second); ; {
			mu.Lock()
			k := len(got)
			mu.Unlock()
			if k == copies {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("send %d: %d of %d copies arrived", i, k, copies)
			}
			if d, ok := clock.NextDeadline(); ok {
				clock.AdvanceTo(d)
				continue
			}
			time.Sleep(20 * time.Microsecond)
		}
		mu.Lock()
		fmt.Fprintf(&out, "%03d ->%s size=%d at=%v copies=%d:%s\n", i, to, len(p), at, copies, strings.Join(got, ""))
		mu.Unlock()
	}
	n.Quiesce()
	fmt.Fprintf(&out, "stats %+v\n", n.Counts())
	return out.Bytes()
}

func TestNetsimReproducesParentFateTrace(t *testing.T) {
	for _, c := range fateCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "fate_"+c.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := fateTrace(t, c); !bytes.Equal(got, want) {
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
