package replica

import (
	"testing"

	"repro/internal/durable"
	"repro/internal/vtime"
)

// newTestStore builds a member store over a fresh in-memory sim disk.
func newTestStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	inner := durable.NewMem(vtime.NewReal(), durable.MemConfig{})
	st, err := NewStore(inner, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func groupCfg(self string) Config {
	return Config{Group: "g", Self: self, Members: []string{"m1", "m2", "m3"}}
}

func TestTermInWalksSpans(t *testing.T) {
	spans := []span{{term: 1, start: 1}, {term: 3, start: 5}}
	cases := []struct{ seq, want uint64 }{
		{0, 0}, // before any attribution
		{1, 1}, {4, 1},
		{5, 3}, {100, 3},
	}
	for _, c := range cases {
		if got := termIn(spans, c.seq); got != c.want {
			t.Errorf("termIn(seq=%d) = %d, want %d", c.seq, got, c.want)
		}
	}
	if got := termIn(nil, 7); got != 0 {
		t.Errorf("termIn(nil, 7) = %d, want 0", got)
	}
}

func TestAddSpanMergesAndSupersedes(t *testing.T) {
	rt := &Runtime{}
	if !rt.addSpanLocked("l", 1, 1) {
		t.Fatal("first span should change the frontier")
	}
	// Same term later in the log merges into the open span: no change.
	if rt.addSpanLocked("l", 1, 3) {
		t.Fatal("same-term extension should not change the frontier")
	}
	if !rt.addSpanLocked("l", 2, 5) {
		t.Fatal("new term should open a span")
	}
	// Re-attribution: a new reign overwriting from seq 4 supersedes the
	// {2,5} span entirely.
	if !rt.addSpanLocked("l", 3, 4) {
		t.Fatal("re-attribution should change the frontier")
	}
	want := []span{{term: 1, start: 1}, {term: 3, start: 4}}
	got := rt.frontier["l"]
	if len(got) != len(want) {
		t.Fatalf("frontier = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frontier = %v, want %v", got, want)
		}
	}
	if got := rt.termAtLocked("l", 4); got != 3 {
		t.Fatalf("termAt(4) = %d after re-attribution, want 3", got)
	}
}

// TestTermStateRoundTrip persists the full 7-field term record and
// replays it through newRuntime, the restart path.
func TestTermStateRoundTrip(t *testing.T) {
	st := newTestStore(t, groupCfg("m1"))
	rt := st.rt
	rt.mu.Lock()
	rt.term = 9
	rt.votedFor = "m2"
	rt.appLog = "bank-g"
	rt.dataTerm = 7
	rt.risk = true
	rt.addSpanLocked("bank-g", 5, 1)
	rt.addSpanLocked("bank-g", 7, 12)
	rt.persistLocked()
	rt.mu.Unlock()

	rt2, err := newRuntime(st, groupCfg("m1"))
	if err != nil {
		t.Fatal(err)
	}
	if rt2.term != 9 || rt2.votedFor != "m2" || rt2.appLog != "bank-g" || rt2.dataTerm != 7 {
		t.Fatalf("replayed term state = term %d votedFor %q appLog %q dataTerm %d",
			rt2.term, rt2.votedFor, rt2.appLog, rt2.dataTerm)
	}
	// Persisted risk must conservatively quarantine the restarted member.
	if !rt2.diverged {
		t.Fatal("persisted risk did not quarantine the restarted member")
	}
	if got := termIn(rt2.frontier["bank-g"], 11); got != 5 {
		t.Fatalf("replayed frontier termAt(11) = %d, want 5", got)
	}
	if got := termIn(rt2.frontier["bank-g"], 12); got != 7 {
		t.Fatalf("replayed frontier termAt(12) = %d, want 7", got)
	}
}

// TestSingletonGroupIgnoresRisk: a one-member group's records are
// definitionally group-committed (the member is its own majority), so a
// persisted risk marker must not brick the group on restart.
func TestSingletonGroupIgnoresRisk(t *testing.T) {
	cfg := Config{Group: "solo", Self: "m1", Members: []string{"m1"}}
	st := newTestStore(t, cfg)
	st.rt.mu.Lock()
	st.rt.risk = true
	st.rt.persistLocked()
	st.rt.mu.Unlock()
	rt2, err := newRuntime(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rt2.diverged {
		t.Fatal("singleton group quarantined itself on restart")
	}
}

// TestCandidateCompletePerLog pins the per-log election rule: surplus in
// one log must not mask missing records in another.
func TestCandidateCompletePerLog(t *testing.T) {
	st := newTestStore(t, groupCfg("m1"))
	for _, w := range []struct {
		log  string
		recs int
	}{{"app-a", 3}, {"app-b", 2}} {
		l, err := st.inner.OpenLog(w.log)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < w.recs; i++ {
			l.AppendSync([]byte{byte(i)})
		}
	}
	rt := st.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	cases := []struct {
		name string
		pos  map[string]uint64
		want bool
	}{
		{"equal everywhere", map[string]uint64{"app-a": 3, "app-b": 2}, true},
		{"ahead everywhere", map[string]uint64{"app-a": 9, "app-b": 9}, true},
		{"sum ahead, one log behind", map[string]uint64{"app-a": 100, "app-b": 1}, false},
		{"missing log counts as zero", map[string]uint64{"app-a": 3}, false},
	}
	for _, c := range cases {
		if got := rt.candidateCompleteLocked(c.pos); got != c.want {
			t.Errorf("%s: candidateComplete = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSuspectsExcludedFromQuorum pins that neither a self-reported
// diverged member nor a fork-flagged one counts toward quorum.
func TestSuspectsExcludedFromQuorum(t *testing.T) {
	st := newTestStore(t, groupCfg("m1"))
	rt := st.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.acks = map[string]map[string]uint64{"m2": {"app-a": 5}}
	rt.suspect = map[string]bool{}
	rt.forked = map[string]map[string]bool{}
	if !rt.quorumForLocked("app-a", 5) {
		t.Fatal("leader + m2 should reach quorum of 3")
	}
	rt.suspect["m2"] = true
	if rt.quorumForLocked("app-a", 5) {
		t.Fatal("self-reported diverged member still counted toward quorum")
	}
	delete(rt.suspect, "m2")
	rt.forked["m2"] = map[string]bool{"app-a": true}
	if rt.quorumForLocked("app-a", 5) {
		t.Fatal("fork-flagged member still counted toward quorum")
	}
	delete(rt.forked, "m2")
	if !rt.quorumForLocked("app-a", 5) {
		t.Fatal("cleared member should count again")
	}
}
