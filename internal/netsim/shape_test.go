package netsim

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/transport"
	"repro/internal/vtime"
)

// shapeSink attaches an address and records payloads delivered to it.
type shapeSink struct {
	mu  sync.Mutex
	got []string
}

func (c *shapeSink) handler() transport.Handler {
	return func(from Addr, payload []byte) {
		c.mu.Lock()
		c.got = append(c.got, string(payload))
		c.mu.Unlock()
	}
}

func (c *shapeSink) messages() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string{}, c.got...)
}

// TestCutDirectedIsOneWay: a directed cut drops a→b while b→a keeps
// flowing, and RestoreDirected re-opens exactly the cut direction.
func TestCutDirectedIsOneWay(t *testing.T) {
	n := New(vtime.NewReal(), Config{})
	var atA, atB shapeSink
	n.Attach("a", atA.handler())
	n.Attach("b", atB.handler())

	n.CutDirected("a", "b")
	if err := n.Send("a", "b", []byte("a->b cut")); err != nil {
		t.Fatal(err)
	}
	if err := n.Send("b", "a", []byte("b->a open")); err != nil {
		t.Fatal(err)
	}
	n.Quiesce()
	if got := atB.messages(); len(got) != 0 {
		t.Fatalf("severed direction delivered %v", got)
	}
	if got := atA.messages(); len(got) != 1 || got[0] != "b->a open" {
		t.Fatalf("open direction delivered %v, want [b->a open]", got)
	}
	if s := n.Counts(); s.Partition != 1 {
		t.Fatalf("Partition count = %d, want 1", s.Partition)
	}

	// Heal does not touch directed cuts; RestoreDirected does.
	n.Heal()
	if err := n.Send("a", "b", []byte("still cut")); err != nil {
		t.Fatal(err)
	}
	n.Quiesce()
	if got := atB.messages(); len(got) != 0 {
		t.Fatalf("Heal re-opened a directed cut: %v", got)
	}
	n.RestoreDirected("a", "b")
	if err := n.Send("a", "b", []byte("restored")); err != nil {
		t.Fatal(err)
	}
	n.Quiesce()
	if got := atB.messages(); len(got) != 1 || got[0] != "restored" {
		t.Fatalf("restored direction delivered %v, want [restored]", got)
	}
}

func sortedNames(groups [][]Addr) [][]string {
	out := make([][]string, len(groups))
	for i, g := range groups {
		for _, a := range g {
			out[i] = append(out[i], string(a))
		}
		sort.Strings(out[i])
	}
	return out
}

// coverExactly asserts groups partition all: every address in exactly
// one group, no strangers.
func coverExactly(t *testing.T, groups [][]Addr, all []Addr) {
	t.Helper()
	seen := make(map[Addr]int)
	for _, g := range groups {
		for _, a := range g {
			seen[a]++
		}
	}
	if len(seen) != len(all) {
		t.Fatalf("groups cover %d addresses, want %d: %v", len(seen), len(all), groups)
	}
	for _, a := range all {
		if seen[a] != 1 {
			t.Fatalf("address %s appears %d times in %v", a, seen[a], groups)
		}
	}
}

func TestSplitBrainGroups(t *testing.T) {
	all := []Addr{"m1", "m2", "m3", "clients"}
	g := SplitBrainGroups(all, "m1")
	coverExactly(t, g, all)
	if len(g[0]) != 1 || g[0][0] != "m1" {
		t.Fatalf("victim side = %v, want [m1]", g[0])
	}
}

func TestIslandGroups(t *testing.T) {
	all := []Addr{"a", "b", "c", "d", "e"}
	g := IslandGroups(all, []Addr{"b", "d"})
	coverExactly(t, g, all)
	want := [][]string{{"b", "d"}, {"a", "c", "e"}}
	got := sortedNames(g)
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("group %d = %v, want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("group %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

// TestRingCutGroups: cutting edges after positions i and j yields two
// contiguous arcs that together cover the ring; adjacency inside each
// arc is preserved.
func TestRingCutGroups(t *testing.T) {
	ring := []Addr{"n0", "n1", "n2", "n3", "n4", "n5"}
	g := RingCutGroups(ring, 1, 4)
	coverExactly(t, g, ring)
	// Arc 1: positions 2..4; arc 2: positions 5,0,1.
	if len(g[0]) != 3 || g[0][0] != "n2" || g[0][2] != "n4" {
		t.Fatalf("first arc = %v, want [n2 n3 n4]", g[0])
	}
	if len(g[1]) != 3 || g[1][0] != "n5" || g[1][2] != "n1" {
		t.Fatalf("second arc = %v, want [n5 n0 n1]", g[1])
	}

	// Degenerate cases: same cut point, tiny rings.
	if g := RingCutGroups(ring, 2, 2); len(g) != 1 || len(g[0]) != len(ring) {
		t.Fatalf("i==j should return one full arc, got %v", g)
	}
	if g := RingCutGroups(nil, 0, 1); g != nil {
		t.Fatalf("empty ring should return nil, got %v", g)
	}
	if g := RingCutGroups([]Addr{"solo"}, 0, 3); len(g) != 1 || len(g[0]) != 1 {
		t.Fatalf("single-node ring should return one arc, got %v", g)
	}
	// Negative and out-of-range indices wrap.
	g = RingCutGroups(ring, -1, 7)
	coverExactly(t, g, ring)
}
