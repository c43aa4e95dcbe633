package ring

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/xrep"
)

func member(name string) Member {
	return Member{
		Name:   name,
		Amo:    xrep.PortName{Node: name, Guardian: 1, Port: 2},
		Native: xrep.PortName{Node: name, Guardian: 1, Port: 1},
	}
}

func TestOwnerDeterministic(t *testing.T) {
	a := New("accts", 64, member("s1"), member("s2"), member("s3"))
	b := New("accts", 64, member("s3"), member("s1"), member("s2")) // any order
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("acct-%d", i)
		ma, ok := a.Owner(key)
		mb, _ := b.Owner(key)
		if !ok || ma.Name != mb.Name {
			t.Fatalf("key %q: owner %q vs %q", key, ma.Name, mb.Name)
		}
	}
}

// TestRingOwnerAllocatesNothing: routing a key finds its owner on the
// point table itself — no replica-set slice, no hasher — and still agrees
// with the first of Owners, over a hash that is fnv64a's before the
// finalizer.
func TestRingOwnerAllocatesNothing(t *testing.T) {
	r := New("accts", 64, member("s1"), member("s2"), member("s3"))
	key := "acct-0000042"
	if got := testing.AllocsPerRun(1000, func() { _, _ = r.Owner(key) }); got != 0 {
		t.Fatalf("Owner allocates %v times, want 0", got)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("acct-%d", i)
		if m, _ := r.Owner(key); m.Name != r.Owners(key, 1)[0].Name {
			t.Fatalf("key %q: Owner %q, Owners %q", key, m.Name, r.Owners(key, 1)[0].Name)
		}
		h := fnv.New64a()
		h.Write([]byte(key))
		z := h.Sum64()
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		if want := z ^ (z >> 31); Hash(key) != want {
			t.Fatalf("Hash(%q) = %x, want %x", key, Hash(key), want)
		}
	}
	if _, ok := New("empty", 0).Owner(key); ok {
		t.Fatal("an empty ring has an owner")
	}
}

func TestOwnerDistribution(t *testing.T) {
	r := New("accts", 64, member("s1"), member("s2"), member("s3"), member("s4"))
	counts := make(map[string]int)
	const n = 20000
	for i := 0; i < n; i++ {
		m, ok := r.Owner(fmt.Sprintf("acct-%07d", i))
		if !ok {
			t.Fatal("empty ring")
		}
		counts[m.Name]++
	}
	for name, c := range counts {
		frac := float64(c) / n
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("member %s owns %.1f%% of keys — virtual nodes not spreading load: %v",
				name, frac*100, counts)
		}
	}
}

func TestOwnersDistinct(t *testing.T) {
	r := New("accts", 16, member("s1"), member("s2"), member("s3"))
	for i := 0; i < 100; i++ {
		ms := r.Owners(fmt.Sprintf("k%d", i), 2)
		if len(ms) != 2 || ms[0].Name == ms[1].Name {
			t.Fatalf("Owners(2) = %v", ms)
		}
	}
	if got := r.Owners("k", 9); len(got) != 3 {
		t.Fatalf("Owners capped at member count: got %d", len(got))
	}
}

// TestJoinMovesOnlyIntoJoiner is the consistent-hashing contract: adding a
// member may move keys only onto the joiner; every other key keeps its
// owner.
func TestJoinMovesOnlyIntoJoiner(t *testing.T) {
	old := New("accts", 64, member("s1"), member("s2"), member("s3"))
	next, err := old.WithJoin(member("s4"))
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch != old.Epoch+1 {
		t.Fatalf("epoch not bumped: %d", next.Epoch)
	}
	moved := 0
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("acct-%07d", i)
		a, _ := old.Owner(key)
		b, _ := next.Owner(key)
		if a.Name != b.Name {
			moved++
			if b.Name != "s4" {
				t.Fatalf("key %q moved %s→%s, not onto the joiner", key, a.Name, b.Name)
			}
		}
	}
	if moved == 0 {
		t.Fatal("join moved no keys")
	}
	if frac := float64(moved) / 10000; frac > 0.45 {
		t.Fatalf("join moved %.1f%% of keys — expected ~1/4", frac*100)
	}
}

func TestLeaveMovesOnlyFromLeaver(t *testing.T) {
	old := New("accts", 64, member("s1"), member("s2"), member("s3"), member("s4"))
	next, err := old.WithLeave("s2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("acct-%07d", i)
		a, _ := old.Owner(key)
		b, _ := next.Owner(key)
		if a.Name != b.Name && a.Name != "s2" {
			t.Fatalf("key %q moved %s→%s though its owner stayed", key, a.Name, b.Name)
		}
		if b.Name == "s2" {
			t.Fatalf("key %q still owned by the leaver", key)
		}
	}
}

func TestPlanCoversExactlyTheChangedRanges(t *testing.T) {
	old := New("accts", 64, member("s1"), member("s2"), member("s3"))
	next, _ := old.WithJoin(member("s4"))
	moves := Plan(old, next)
	if len(moves) == 0 {
		t.Fatal("empty plan for a join")
	}
	for _, mv := range moves {
		if mv.To != "s4" {
			t.Fatalf("join plan has a move not into the joiner: %+v", mv)
		}
	}
	// The plan must name every (from,to) pair some key actually crosses.
	want := make(map[Move]bool)
	for i := 0; i < 20000; i++ {
		key := fmt.Sprintf("acct-%07d", i)
		a, _ := old.Owner(key)
		b, _ := next.Owner(key)
		if a.Name != b.Name {
			want[Move{From: a.Name, To: b.Name}] = true
		}
	}
	have := make(map[Move]bool)
	for _, mv := range moves {
		have[mv] = true
	}
	for mv := range want {
		if !have[mv] {
			t.Fatalf("plan misses observed move %+v (plan %v)", mv, moves)
		}
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	r := New("accts", 32, member("s1"), member("s2"))
	r2, err := Unmarshal(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Name != r.Name || r2.Epoch != r.Epoch || r2.VNodes != r.VNodes || len(r2.Members) != 2 {
		t.Fatalf("roundtrip mismatch: %+v", r2)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("k%d", i)
		a, _ := r.Owner(key)
		b, _ := r2.Owner(key)
		if a.Name != b.Name || a.Amo != b.Amo || a.Native != b.Native {
			t.Fatalf("key %q: %+v vs %+v", key, a, b)
		}
	}
}

func TestGuards(t *testing.T) {
	r := New("accts", 8, member("s1"))
	if _, err := r.WithJoin(member("s1")); err == nil {
		t.Fatal("duplicate join allowed")
	}
	if _, err := r.WithLeave("s1"); err == nil {
		t.Fatal("removing the last member allowed")
	}
	if _, err := r.WithLeave("nope"); err == nil {
		t.Fatal("removing a stranger allowed")
	}
	empty := &Ring{Name: "e", VNodes: 8}
	if _, ok := empty.Owner("k"); ok {
		t.Fatal("empty ring claimed an owner")
	}
}
