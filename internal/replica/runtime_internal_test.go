package replica

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/durable"
	"repro/internal/guardian"
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
	// The span already there, again: no change, so no second persist.
	if rt.addSpanLocked("l", 3, 4) {
		t.Fatal("re-adding the last span should not change the frontier")
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
	rt.addSpanLocked("bank-g", 5, 1)
	rt.addSpanLocked("bank-g", 7, 12)
	rt.persistLocked()
	rt.mu.Unlock()

	rt2, err := newRuntime(st, groupCfg("m1"))
	if err != nil {
		t.Fatal(err)
	}
	if rt2.term != 9 || rt2.votedFor != "m2" || rt2.appLog != "bank-g" || rt2.role != roleFollower {
		t.Fatalf("replayed term state = term %d votedFor %q appLog %q role %d",
			rt2.term, rt2.votedFor, rt2.appLog, rt2.role)
	}
	if got := termIn(rt2.frontier["bank-g"], 11); got != 5 {
		t.Fatalf("replayed frontier termAt(11) = %d, want 5", got)
	}
	if got := termIn(rt2.frontier["bank-g"], 12); got != 7 {
		t.Fatalf("replayed frontier termAt(12) = %d, want 7", got)
	}
}

// legacyTermState is a term record as members wrote it while they could
// be quarantined: dataTerm 6, diverged and at risk.
var legacyTermState = xrep.Seq{xrep.Int(7), xrep.Str("m2"), xrep.Str("bank-2"),
	xrep.Int(6), xrep.Int(1), xrep.Int(1), xrep.Seq{xrep.Seq{xrep.Str("bank-2"), xrep.Seq{xrep.Seq{xrep.Int(6), xrep.Int(1)}}}}}

// TestLegacyRiskRecordRestartsAsFollower: the retired diverged and risk
// fields are read and ignored, so a member whose last term record says
// it was quarantined restarts an ordinary follower, free to stand for
// election, and writes zeros in their place from then on.
func TestLegacyRiskRecordRestartsAsFollower(t *testing.T) {
	inner := durable.NewMem(vtime.NewReal(), durable.MemConfig{})
	tl, err := inner.OpenLog(termLogName("g"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := wire.MarshalValue(legacyTermState)
	if err != nil {
		t.Fatal(err)
	}
	tl.AppendSync(b)
	st, err := NewStore(inner, groupCfg("m1"))
	if err != nil {
		t.Fatal(err)
	}
	rt := st.rt
	if rt.term != 7 || rt.votedFor != "m2" || rt.appLog != "bank-2" || rt.role != roleFollower ||
		termIn(rt.frontier["bank-2"], 3) != 6 {
		t.Fatalf("legacy record folded to term %d vote %q appLog %q role %d frontier %v",
			rt.term, rt.votedFor, rt.appLog, rt.role, rt.frontier)
	}
	v, err := wire.UnmarshalValue(persisted(t, rt))
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 6; i++ {
		if v.(xrep.Seq)[i] != xrep.Int(0) {
			t.Fatalf("retired field %d persisted as %v, want 0", i, v.(xrep.Seq)[i])
		}
	}
}

// forkedLog gives st a log "app" of n records "old<seq>", attributed by
// spans.
func forkedLog(t *testing.T, st *Store, n int, spans ...span) durable.Log {
	t.Helper()
	l, err := st.inner.OpenLog("app")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		l.AppendSync([]byte(fmt.Sprintf("old%d", i)))
	}
	st.rt.mu.Lock()
	for _, sp := range spans {
		st.rt.addSpanLocked("app", sp.term, sp.start)
	}
	st.rt.mu.Unlock()
	return l
}

// wantLog asserts l's records read "seq:data" in order.
func wantLog(t *testing.T, l durable.Log, want ...string) {
	t.Helper()
	_, recs, _ := l.Recover()
	got := make([]string, len(recs))
	for i, r := range recs {
		got[i] = fmt.Sprintf("%d:%s", r.Seq, r.Data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("log = %v, want %v", got, want)
	}
}

// ship builds a rep_append batch of records "new<seq>" of origin term.
func ship(term uint64, seqs ...uint64) []shipped {
	out := make([]shipped, len(seqs))
	for i, q := range seqs {
		out[i] = shipped{seq: q, origin: term, data: []byte(fmt.Sprintf("new%d", q))}
	}
	return out
}

// TestAppendAppliesOnlyOnMatch is rule 1: a batch whose prevSeq this
// member holds under another term applies nothing, and the ack skips the
// member's whole span there.
func TestAppendAppliesOnlyOnMatch(t *testing.T) {
	st := newTestStore(t, groupCfg("m2"))
	l := forkedLog(t, st, 6, span{term: 1, start: 1}, span{term: 2, start: 3})
	ack, _ := st.rt.apply("app", 3, 5, 3, ship(3, 6, 7))
	if ack != 2 {
		t.Fatalf("mismatch at prevSeq acked %d, want 2 (the seq before the term-2 span)", ack)
	}
	wantLog(t, l, "1:old1", "2:old2", "3:old3", "4:old4", "5:old5", "6:old6")
	// An unattributed prevTerm makes no claim: the batch matches.
	if ack, _ = st.rt.apply("app", 3, 6, 0, ship(2, 7)); ack != 7 {
		t.Fatalf("unattributed prevTerm acked %d, want 7", ack)
	}
}

// TestFollowerTruncatesFromFirstConflict is rule 2: once prevSeq
// matches, the member truncates from its first record whose term differs
// from the shipped one — not from the start of its span there — trims its
// frontier, then applies the batch.
func TestFollowerTruncatesFromFirstConflict(t *testing.T) {
	st := newTestStore(t, groupCfg("m2"))
	l := forkedLog(t, st, 6, span{term: 1, start: 1}, span{term: 2, start: 3})
	batch := append(ship(2, 4), ship(3, 5, 6, 7)...)
	batch[0].data = []byte("old4") // the record both logs share
	if ack, _ := st.rt.apply("app", 3, 3, 2, batch); ack != 7 {
		t.Fatalf("acked %d, want 7", ack)
	}
	wantLog(t, l, "1:old1", "2:old2", "3:old3", "4:old4", "5:new5", "6:new6", "7:new7")
	if got, want := st.rt.frontier["app"], []span{{1, 1}, {2, 3}, {3, 5}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("frontier = %v, want %v", got, want)
	}
	if n := st.rt.stats.ForksDetected; n != 1 {
		t.Fatalf("ForksDetected = %d, want 1", n)
	}
}

// TestEmptyBatchTruncatesForkedTail: an empty batch says the leader's log
// ends at prevSeq, so a member holding records past it from another
// reign truncates them; its own term's records past it it keeps (a stale
// probe from a leader that has since grown).
func TestEmptyBatchTruncatesForkedTail(t *testing.T) {
	st := newTestStore(t, groupCfg("m2"))
	l := forkedLog(t, st, 6, span{term: 1, start: 1}, span{term: 2, start: 5})
	if ack, _ := st.rt.apply("app", 2, 4, 1, nil); ack != 4 {
		t.Fatalf("stale probe acked %d, want 4", ack)
	}
	wantLog(t, l, "1:old1", "2:old2", "3:old3", "4:old4", "5:old5", "6:old6")
	if ack, _ := st.rt.apply("app", 3, 4, 1, nil); ack != 4 {
		t.Fatalf("probe acked %d, want 4", ack)
	}
	wantLog(t, l, "1:old1", "2:old2", "3:old3", "4:old4")
	if seq := l.AppendSync([]byte("next")); seq != 5 {
		t.Fatalf("next Append after the cut = %d, want 5", seq)
	}
}

// TestConflictUnderCheckpointWaits: a conflict at or below the member's
// own checkpoint cannot be truncated; nothing changes until a checkpoint
// install supersedes the log.
func TestConflictUnderCheckpointWaits(t *testing.T) {
	st := newTestStore(t, groupCfg("m2"))
	l := forkedLog(t, st, 6, span{term: 1, start: 1}, span{term: 2, start: 4})
	l.Checkpoint([]byte("cp@5"), 5)
	if ack, _ := st.rt.apply("app", 3, 3, 1, ship(3, 4, 5, 6, 7)); ack != 3 {
		t.Fatalf("acked %d, want 3 (the seq before the conflict)", ack)
	}
	wantLog(t, l, "6:old6")
	if l.LastDurableSeq() != 6 || st.rt.stats.ForksDetected != 0 {
		t.Fatalf("tail %d forks %d, want 6 and 0", l.LastDurableSeq(), st.rt.stats.ForksDetected)
	}
}

// TestCheckpointInstallHealsForkAboveOwnCheckpoint: a leader's checkpoint
// at a seq the member holds under another term means the logs forked at
// or below it. The member installs it over its log and truncates its
// tail, even when that tail runs past the checkpoint; a member holding
// the leader's record there only acks it; a fork under the member's own
// checkpoint waits.
func TestCheckpointInstallHealsForkAboveOwnCheckpoint(t *testing.T) {
	st := newTestStore(t, groupCfg("m2"))
	l := forkedLog(t, st, 8, span{term: 1, start: 1}, span{term: 2, start: 5})
	if ack, _ := st.rt.install("app", []byte("cp@6"), 4, 1); ack != 4 {
		t.Fatalf("matching checkpoint acked %d, want 4", ack)
	}
	if ack, _ := st.rt.install("app", []byte("cp@6"), 6, 2); ack != 6 || l.LastDurableSeq() != 8 {
		t.Fatalf("matching checkpoint acked %d over tail %d, want 6 over 8", ack, l.LastDurableSeq())
	}
	if ack, _ := st.rt.install("app", []byte("cp@6"), 6, 3); ack != 6 {
		t.Fatalf("forked member acked %d, want 6", ack)
	}
	if cp, recs, _ := l.Recover(); string(cp) != "cp@6" || len(recs) != 0 || l.LastDurableSeq() != 6 {
		t.Fatalf("checkpoint %q, %d records, tail %d; want cp@6 alone at 6", cp, len(recs), l.LastDurableSeq())
	}
	if got, want := st.rt.frontier["app"], []span{{3, 6}}; !reflect.DeepEqual(got, want) || st.rt.stats.ForksDetected != 1 {
		t.Fatalf("frontier = %v forks %d, want %v and 1", got, st.rt.stats.ForksDetected, want)
	}
	if seq := l.AppendSync([]byte("next")); seq != 7 {
		t.Fatalf("next Append after the install = %d, want 7", seq)
	}
	// Under its own checkpoint (at 6) the member cannot cut: it waits.
	if ack, _ := st.rt.install("app", []byte("cp@5"), 5, 4); ack != 7 || l.LastDurableSeq() != 7 {
		t.Fatalf("fork under own checkpoint acked %d tail %d, want 7 and 7", ack, l.LastDurableSeq())
	}
}

// leaderOf makes st the leader of term 2 over "app" (records 1..5, term
// 1 then term 2 from seq 4) and returns the rep_ack a member m2 sends.
func leaderOf(t *testing.T, st *Store) func(seq, term uint64) {
	forkedLog(t, st, 5, span{term: 1, start: 1}, span{term: 2, start: 4})
	rt := st.rt
	rt.role, rt.term = roleLeader, 2
	rt.acks = map[string]map[string]progress{}
	rt.published = map[string]uint64{"app": 5}
	return func(seq, term uint64) {
		rt.onAck(nil, &guardian.Message{Command: "rep_ack", SrcNode: "m2",
			Args: xrep.Seq{xrep.Str("g"), xrep.Int(2), xrep.Str("app"), xrep.Int(int64(seq)), xrep.Int(int64(term))}})
	}
}

// TestAckCountsOnlyOnMatchingTerm is rule 3: an ack counts toward quorum
// only at a seq the leader holds with the same term; any other ack only
// moves where the leader probes next.
func TestAckCountsOnlyOnMatchingTerm(t *testing.T) {
	st := newTestStore(t, groupCfg("m1"))
	ack := leaderOf(t, st)
	rt := st.rt
	for _, c := range []struct {
		seq, term uint64
		why       string
	}{
		{5, 1, "a forked record at the leader's tail"},
		{6, 2, "a position past the leader's own tail"},
	} {
		ack(c.seq, c.term)
		if rt.quorumForLocked("app", 1) {
			t.Fatalf("%s counted toward quorum", c.why)
		}
	}
	if pg := rt.acks["m2"]["app"]; pg.next != 5 || !pg.unmatched {
		t.Fatalf("unmatched acks left progress %+v, want next 5 and a probe", pg)
	}
	ack(3, 1)
	if pg := rt.acks["m2"]["app"]; pg.next != 3 || pg.match != 3 || pg.unmatched {
		t.Fatalf("matched ack left progress %+v, want match 3 and next 3", pg)
	}
	if !rt.quorumForLocked("app", 3) || rt.quorumForLocked("app", 4) {
		t.Fatal("leader + m2 matched at 3 should hold exactly seq 3 at a quorum of 3")
	}
	ack(5, 2)
	if !rt.quorumForLocked("app", 5) {
		t.Fatal("an ack matching the leader's tail did not reach quorum")
	}
}

// TestVoteComparesLastTermThenSeq is rule 4: per log, a longer log from
// an older reign loses to a shorter one from a newer reign.
func TestVoteComparesLastTermThenSeq(t *testing.T) {
	st := newTestStore(t, groupCfg("m1"))
	forkedLog(t, st, 3, span{term: 1, start: 1}, span{term: 2, start: 3})
	rt := st.rt
	for _, c := range []struct {
		seq, term uint64
		want      bool
	}{
		{3, 2, true},  // equal
		{1, 3, true},  // newer reign, shorter
		{2, 2, false}, // same reign, shorter
		{9, 1, false}, // older reign, longer
	} {
		if got := rt.candidateCompleteLocked(map[string]position{"app": {seq: c.seq, term: c.term}}); got != c.want {
			t.Errorf("candidate (term %d, seq %d) vs voter (2, 3): complete = %v, want %v", c.term, c.seq, got, c.want)
		}
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
		pos  map[string]position
		want bool
	}{
		{"equal everywhere", map[string]position{"app-a": {seq: 3}, "app-b": {seq: 2}}, true},
		{"ahead everywhere", map[string]position{"app-a": {seq: 9}, "app-b": {seq: 9}}, true},
		{"sum ahead, one log behind", map[string]position{"app-a": {seq: 100}, "app-b": {seq: 1}}, false},
		{"missing log counts as zero", map[string]position{"app-a": {seq: 3}}, false},
	}
	for _, c := range cases {
		if got := rt.candidateCompleteLocked(c.pos); got != c.want {
			t.Errorf("%s: candidateComplete = %v, want %v", c.name, got, c.want)
		}
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
	good := persisted(t, &Runtime{term: 7, votedFor: "m2", appLog: "bank-2",
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
	if rt := st.rt; rt.term != 7 || rt.votedFor != "m2" || len(rt.frontier["bank-2"]) != 1 {
		t.Errorf("restored term %d vote %q frontier %v", rt.term, rt.votedFor, rt.frontier)
	}
}

// FuzzTermState feeds hostile bytes to the term-state reader (and through
// it parseFrontier). It must not panic or allocate beyond a bound set by
// the input's length; what it accepts has the kinds persistLocked writes;
// and the state it read, persisted again, reads back the same.
func FuzzTermState(f *testing.F) {
	f.Add(persisted(f, &Runtime{}))
	f.Add(persisted(f, &Runtime{term: 7, votedFor: "m2", appLog: "bank-2",
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
	legacy, err := wire.MarshalValue(legacyTermState)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)

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
		if _, err = rt2.foldTermState(again); err != nil || rt2.term != rt.term || rt2.votedFor != rt.votedFor || rt2.appLog != rt.appLog ||
			rt2.role != roleFollower || (len(rt.frontier)+len(rt2.frontier) > 0 && !reflect.DeepEqual(rt2.frontier, rt.frontier)) {
			t.Fatalf("accepted term state does not survive persist → read: %v", err)
		}
	})
}
