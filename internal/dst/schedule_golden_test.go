package dst

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// testdata/schedule_parent.txt was recorded from the tree BEFORE a run's
// streams were derived in internal/fault, by running scheduleTrace below
// against the harness as it then was. It pins the schedule stream — the
// master seed's second draw — for every stock profile over every world
// shape. It is a recording, not an expectation to regenerate: if it stops
// matching, the seed derivation moved and the seed corpus moved with it.
func scheduleTrace() []byte {
	shapes := []struct {
		name string
		opts Options
	}{
		{"bank", Options{Workload: "bank"}},
		{"bank shards=1 replfactor=3", Options{Workload: "bank", Topology: &Topology{Shards: 1, ReplFactor: 3}}},
		{"bank ring=4,2,1", Options{Workload: "bank", Ring: &RingTopology{Shards: 4, Joins: 2, Leaves: 1}}},
		{"airline", Options{Workload: "airline"}},
	}
	var out bytes.Buffer
	for _, s := range shapes {
		for _, p := range Profiles() {
			for _, seed := range []int64{1, 42, 1979} {
				opts := s.opts
				opts.Seed, opts.Profile = seed, p
				fmt.Fprintf(&out, "%s %s seed=%d\n", s.name, p.Name, seed)
				for _, ev := range Schedule(opts) {
					fmt.Fprintf(&out, "  %s\n", ev)
				}
			}
		}
	}
	return out.Bytes()
}

func TestScheduleMatchesParent(t *testing.T) {
	want, err := os.ReadFile("testdata/schedule_parent.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := scheduleTrace(); !bytes.Equal(got, want) {
		g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(g) && i < len(w); i++ {
			if !bytes.Equal(g[i], w[i]) {
				t.Fatalf("schedule diverged from the parent recording at line %d:\n got  %s\n want %s", i+1, g[i], w[i])
			}
		}
		t.Fatalf("schedule trace has %d lines, the parent recording %d", len(g), len(w))
	}
}
