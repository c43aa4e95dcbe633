package replica

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/durable"
	"repro/internal/vtime"
	"repro/internal/wire"
	"repro/internal/xrep"
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

// persisted returns the term-log record persistLocked writes for rt.
func persisted(t testing.TB, rt *Runtime) []byte {
	t.Helper()
	log, err := durable.NewMem(vtime.NewReal(), durable.MemConfig{}).OpenLog("term")
	if err != nil {
		t.Fatal(err)
	}
	rt.termLog = log
	rt.persistLocked()
	_, recs, _ := log.Recover()
	if len(recs) != 1 {
		t.Fatalf("persistLocked wrote %d records", len(recs))
	}
	return recs[0].Data
}

// TestUnreadableTermStateRefusesStart: a member whose term log holds a
// record that is not term state must not start — the parent ignored what
// it could not read and came up at term 0, free to vote again in a term it
// had already voted in.
func TestUnreadableTermStateRefusesStart(t *testing.T) {
	good := persisted(t, &Runtime{term: 7, votedFor: "m2", appLog: "bank-2", dataTerm: 6,
		frontier: map[string][]span{"bank-2": {{term: 6, start: 1}}}})
	for name, rec := range map[string]xrep.Value{
		"term a string":      xrep.Seq{xrep.Str("7"), xrep.Str("m2")},
		"vote an int":        xrep.Seq{xrep.Int(7), xrep.Int(2)},
		"one field":          xrep.Seq{xrep.Int(7)},
		"eight fields":       xrep.Seq{xrep.Int(7), xrep.Str(""), xrep.Str(""), xrep.Int(0), xrep.Int(0), xrep.Int(0), xrep.Seq{}, xrep.Int(0)},
		"frontier not a seq": xrep.Seq{xrep.Int(7), xrep.Str(""), xrep.Str(""), xrep.Int(0), xrep.Int(0), xrep.Int(0), xrep.Int(0)},
		"span not a pair":    xrep.Seq{xrep.Int(7), xrep.Str(""), xrep.Str(""), xrep.Int(0), xrep.Int(0), xrep.Int(0), xrep.Seq{xrep.Seq{xrep.Str("l"), xrep.Seq{xrep.Int(1)}}}},
		"a record":           xrep.Rec{Name: "bank/ring", Fields: xrep.Seq{xrep.Str("")}},
	} {
		bad, err := wire.MarshalValue(rec)
		if err != nil {
			t.Fatal(err)
		}
		inner := durable.NewMem(vtime.NewReal(), durable.MemConfig{})
		tl, err := inner.OpenLog(termLogName("g"))
		if err != nil {
			t.Fatal(err)
		}
		tl.AppendSync(good)
		tl.AppendSync(bad)
		if st, err := NewStore(inner, groupCfg("m1")); !errors.Is(err, xrep.ErrMalformed) {
			t.Errorf("%s: NewStore = %v, %v; want ErrMalformed", name, st, err)
		}
	}
	// The last readable state stands.
	inner := durable.NewMem(vtime.NewReal(), durable.MemConfig{})
	tl, _ := inner.OpenLog(termLogName("g"))
	tl.AppendSync(persisted(t, &Runtime{term: 3, votedFor: "m1"}))
	tl.AppendSync(good)
	st, err := NewStore(inner, groupCfg("m1"))
	if err != nil {
		t.Fatal(err)
	}
	if rt := st.rt; rt.term != 7 || rt.votedFor != "m2" || rt.dataTerm != 6 || len(rt.frontier["bank-2"]) != 1 {
		t.Errorf("restored term %d vote %q dataTerm %d frontier %v", rt.term, rt.votedFor, rt.dataTerm, rt.frontier)
	}
}

// FuzzTermState feeds hostile bytes to the term-state reader (and through
// it parseFrontier). It must not panic or allocate beyond a bound set by
// the input's length; what it accepts has the kinds persistLocked writes;
// and the state it read, persisted again, reads back the same.
func FuzzTermState(f *testing.F) {
	f.Add(persisted(f, &Runtime{}))
	f.Add(persisted(f, &Runtime{term: 7, votedFor: "m2", appLog: "bank-2", dataTerm: 6, diverged: true, risk: true,
		frontier: map[string][]span{"bank-2": {{term: 1, start: 1}, {term: 6, start: 40}}, "_catalog": {{term: 6, start: 2}}}}))
	for _, v := range []xrep.Value{
		xrep.Seq{xrep.Int(7), xrep.Str("m2")},
		xrep.Seq{xrep.Int(7), xrep.Str("m2"), xrep.Str("bank-2"), xrep.Int(6)},
		xrep.Seq{xrep.Str("7"), xrep.Str("m2")},
		xrep.Seq{xrep.Int(7), xrep.Str(""), xrep.Str(""), xrep.Int(0), xrep.Int(0), xrep.Int(0), xrep.Seq{xrep.Seq{xrep.Int(1), xrep.Seq{}}}},
	} {
		b, err := wire.MarshalValue(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := wire.UnmarshalValue(data)
		if err != nil {
			return
		}
		rt := &Runtime{}
		_, err = rt.foldTermState(v)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10+256*uint64(len(data)) {
			t.Fatalf("reading %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		seq := v.(xrep.Seq)
		for i, k := range []xrep.Kind{xrep.KindInt, xrep.KindString, xrep.KindString, xrep.KindInt, xrep.KindInt, xrep.KindInt, xrep.KindSeq} {
			if i < len(seq) && seq[i].Kind() != k {
				t.Fatalf("accepted term state whose field %d is %s", i, seq[i])
			}
		}
		if len(seq) < 2 || len(seq) > 7 {
			t.Fatalf("accepted term state of %d fields", len(seq))
		}
		again, err := wire.UnmarshalValue(persisted(t, rt))
		if err != nil {
			t.Fatal(err)
		}
		rt2 := &Runtime{}
		if _, err = rt2.foldTermState(again); err != nil || rt2.risk != rt.risk || rt2.term != rt.term || rt2.votedFor != rt.votedFor || rt2.appLog != rt.appLog ||
			rt2.dataTerm != rt.dataTerm || rt2.diverged != rt.diverged ||
			(len(rt.frontier)+len(rt2.frontier) > 0 && !reflect.DeepEqual(rt2.frontier, rt.frontier)) {
			t.Fatalf("accepted term state does not survive persist → read: %v", err)
		}
	})
}
