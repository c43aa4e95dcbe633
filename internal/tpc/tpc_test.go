package tpc

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/guardian"
	"repro/internal/netsim"
	"repro/internal/xrep"
)

const testTimeout = 10 * time.Second

// harness wires a coordinator plus n slot participants, each on its own
// node.
type harness struct {
	w           *guardian.World
	coordPort   xrep.PortName
	coordNode   *guardian.Node
	coordID     uint64
	parts       []xrep.PortName
	partNodes   []*guardian.Node
	partIDs     []uint64
	client      *guardian.Process
	clientReply *guardian.Port
}

func newHarness(t *testing.T, nParts int, netCfg netsim.Config, capacity int64) *harness {
	t.Helper()
	return newHarnessOn(t, guardian.NewWorld(guardian.Config{Net: netCfg}), nParts, capacity)
}

// newHarnessOn is newHarness on a world the caller configured.
func newHarnessOn(t *testing.T, w *guardian.World, nParts int, capacity int64) *harness {
	t.Helper()
	w.MustRegister(CoordinatorDef())
	w.MustRegister(NewParticipantDef("slot_participant", func() Resource {
		return NewSlotResource(map[string]int64{"unit": capacity})
	}))
	h := &harness{w: w}
	cn := w.MustAddNode("coord")
	h.coordNode = cn
	created, err := cn.Bootstrap(CoordinatorDefName, int64(500), int64(3))
	if err != nil {
		t.Fatal(err)
	}
	h.coordPort = created.Ports[0]
	h.coordID = created.GuardianID
	for i := 0; i < nParts; i++ {
		pn := w.MustAddNode(fmt.Sprintf("part%d", i))
		pc, err := pn.Bootstrap("slot_participant")
		if err != nil {
			t.Fatal(err)
		}
		h.parts = append(h.parts, pc.Ports[0])
		h.partNodes = append(h.partNodes, pn)
		h.partIDs = append(h.partIDs, pc.GuardianID)
	}
	clientNode := w.MustAddNode("client")
	g, proc, err := clientNode.NewDriver("c")
	if err != nil {
		t.Fatal(err)
	}
	h.client = proc
	h.clientReply = g.MustNewPort(ClientReplyType, 16)
	return h
}

// begin runs one transaction taking n units from every participant and
// returns the outcome command. Lost replies are handled the way a real
// client handles them: re-send the same begin (the coordinator records
// decisions per txid, so duplicates are answered from memory).
func (h *harness) begin(t *testing.T, txid string, n int64) string {
	t.Helper()
	ops := make(xrep.Seq, len(h.parts))
	for i, p := range h.parts {
		ops[i] = xrep.Seq{p, SlotOp("unit", n)}
	}
	for attempt := 0; attempt < 12; attempt++ {
		if err := h.client.SendReplyTo(h.coordPort, h.clientReply.Name(), "begin", txid, ops); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			m, st := h.client.Receive(time.Until(deadline), h.clientReply)
			if st != guardian.RecvOK {
				break // retry the begin
			}
			if m.IsFailure() {
				t.Fatalf("tx %s: %s", txid, m.FailureText())
			}
			if m.Str(0) == txid {
				return m.Command
			}
		}
	}
	t.Fatalf("tx %s: no outcome after retries", txid)
	return ""
}

// resources returns each participant's SlotResource.
func (h *harness) resources(t *testing.T) []*SlotResource {
	t.Helper()
	out := make([]*SlotResource, len(h.partIDs))
	for i, id := range h.partIDs {
		g, ok := h.partNodes[i].GuardianByID(id)
		if !ok {
			t.Fatalf("participant %d gone", i)
		}
		res, ok := ParticipantResource(g)
		if !ok {
			t.Fatalf("participant %d has no resource", i)
		}
		out[i] = res.(*SlotResource)
	}
	return out
}

// auditAtomic checks all-or-nothing: every participant committed the same
// set of transactions' units.
func (h *harness) auditAtomic(t *testing.T) {
	t.Helper()
	res := h.resources(t)
	first := res[0].Committed("unit")
	for i, r := range res {
		if got := r.Committed("unit"); got != first {
			t.Fatalf("atomicity violated: participant 0 committed %d units, participant %d committed %d",
				first, i, got)
		}
		if held := r.Held("unit"); held != 0 {
			t.Fatalf("participant %d still holds %d units after all transactions settled", i, held)
		}
	}
}

func TestCommitAcrossParticipants(t *testing.T) {
	h := newHarness(t, 3, netsim.Config{}, 10)
	if out := h.begin(t, "tx1", 2); out != OutcomeCommitted {
		t.Fatalf("tx1: %s", out)
	}
	for i, r := range h.resources(t) {
		if got := r.Committed("unit"); got != 2 {
			t.Fatalf("participant %d committed %d, want 2", i, got)
		}
	}
	h.auditAtomic(t)
}

func TestAbortWhenAnyParticipantRefuses(t *testing.T) {
	h := newHarness(t, 3, netsim.Config{}, 10)
	// First tx takes 9 of 10 everywhere.
	if out := h.begin(t, "tx1", 9); out != OutcomeCommitted {
		t.Fatal("tx1 should commit")
	}
	// Second wants 2: no participant can prepare — abort, nothing changes.
	if out := h.begin(t, "tx2", 2); out != OutcomeAborted {
		t.Fatal("tx2 should abort")
	}
	for i, r := range h.resources(t) {
		if got := r.Committed("unit"); got != 9 {
			t.Fatalf("participant %d committed %d after abort, want 9", i, got)
		}
	}
	h.auditAtomic(t)
}

func TestAbortReleasesHolds(t *testing.T) {
	// Only one participant refuses; the others prepared and must release.
	w := guardian.NewWorld(guardian.Config{})
	w.MustRegister(CoordinatorDef())
	w.MustRegister(NewParticipantDef("big", func() Resource {
		return NewSlotResource(map[string]int64{"unit": 100})
	}))
	w.MustRegister(NewParticipantDef("small", func() Resource {
		return NewSlotResource(map[string]int64{"unit": 1})
	}))
	cn := w.MustAddNode("coord")
	created, err := cn.Bootstrap(CoordinatorDefName, int64(500), int64(3))
	if err != nil {
		t.Fatal(err)
	}
	bigNode := w.MustAddNode("big")
	bigC, err := bigNode.Bootstrap("big")
	if err != nil {
		t.Fatal(err)
	}
	smallNode := w.MustAddNode("small")
	smallC, err := smallNode.Bootstrap("small")
	if err != nil {
		t.Fatal(err)
	}
	clientNode := w.MustAddNode("client")
	g, client, err := clientNode.NewDriver("c")
	if err != nil {
		t.Fatal(err)
	}
	reply := g.MustNewPort(ClientReplyType, 8)
	ops := xrep.Seq{
		xrep.Seq{bigC.Ports[0], SlotOp("unit", 5)},
		xrep.Seq{smallC.Ports[0], SlotOp("unit", 5)}, // exceeds small's capacity
	}
	if err := client.SendReplyTo(created.Ports[0], reply.Name(), "begin", "tx1", ops); err != nil {
		t.Fatal(err)
	}
	m, st := client.Receive(testTimeout, reply)
	if st != guardian.RecvOK || m.Command != OutcomeAborted {
		t.Fatalf("want aborted, got %v %v", st, m)
	}
	// The big participant's hold must be released.
	bg, _ := bigNode.GuardianByID(bigC.GuardianID)
	res, _ := ParticipantResource(bg)
	slot := res.(*SlotResource)
	if slot.Held("unit") != 0 || slot.Committed("unit") != 0 {
		t.Fatalf("aborted hold not released: held=%d committed=%d",
			slot.Held("unit"), slot.Committed("unit"))
	}
	if ph, _ := ParticipantPhase(bg, "tx1"); ph != "aborted" {
		t.Fatalf("big participant phase %s, want aborted", ph)
	}
}

func TestDeadParticipantAborts(t *testing.T) {
	h := newHarness(t, 2, netsim.Config{}, 10)
	h.partNodes[1].Crash()
	if out := h.begin(t, "tx1", 1); out != OutcomeAborted {
		t.Fatalf("tx with dead participant: %s, want aborted", out)
	}
	// The live participant must not be left holding.
	g, _ := h.partNodes[0].GuardianByID(h.partIDs[0])
	res, _ := ParticipantResource(g)
	if held := res.(*SlotResource).Held("unit"); held != 0 {
		t.Fatalf("live participant holds %d after abort", held)
	}
}

func TestDuplicateBeginReturnsRecordedOutcome(t *testing.T) {
	h := newHarness(t, 2, netsim.Config{}, 10)
	if out := h.begin(t, "tx1", 3); out != OutcomeCommitted {
		t.Fatal("tx1 commit")
	}
	// Retrying the same txid must not re-run the transaction.
	if out := h.begin(t, "tx1", 3); out != OutcomeCommitted {
		t.Fatal("duplicate begin outcome")
	}
	for _, r := range h.resources(t) {
		if got := r.Committed("unit"); got != 3 {
			t.Fatalf("duplicate begin re-applied: committed %d, want 3", got)
		}
	}
}

func TestTransactionsSurviveMessageLoss(t *testing.T) {
	// 20% loss: retries in the settle phase mask it; every outcome must
	// still be atomic.
	h := newHarness(t, 3, netsim.Config{Seed: 5, LossRate: 0.2, BaseLatency: time.Millisecond}, 100)
	committed := 0
	for i := 0; i < 10; i++ {
		if out := h.begin(t, fmt.Sprintf("tx%d", i), 1); out == OutcomeCommitted {
			committed++
		}
	}
	if committed == 0 {
		t.Fatal("no transaction committed under 20% loss")
	}
	h.w.Quiesce()
	time.Sleep(50 * time.Millisecond)
	h.auditAtomic(t)
	for i, r := range h.resources(t) {
		if got := r.Committed("unit"); got != int64(committed) {
			t.Fatalf("participant %d committed %d units, want %d", i, got, committed)
		}
	}
}

// slowResource wraps a SlotResource with a prepare delay, opening a
// deterministic window between "prepared and voted" and "heard the
// decision" for crash-injection tests.
type slowResource struct {
	*SlotResource
	delay time.Duration
}

func (s *slowResource) Vote(op xrep.Value) bool {
	time.Sleep(s.delay)
	return s.SlotResource.Vote(op)
}

func TestParticipantCrashAfterPrepareThenRecovery(t *testing.T) {
	// A participant votes yes but never hears the decision (its inbound
	// link is severed right after the prepare arrives); after recovery its
	// durable prepared state plus the coordinator's recovery resettle
	// deliver the commit.
	w := guardian.NewWorld(guardian.Config{})
	w.MustRegister(CoordinatorDef())
	w.MustRegister(NewParticipantDef("fast_p", func() Resource {
		return NewSlotResource(map[string]int64{"unit": 10})
	}))
	w.MustRegister(NewParticipantDef("slow_p", func() Resource {
		return &slowResource{
			SlotResource: NewSlotResource(map[string]int64{"unit": 10}),
			delay:        250 * time.Millisecond,
		}
	}))
	coordNode := w.MustAddNode("coord")
	created, err := coordNode.Bootstrap(CoordinatorDefName, int64(1000), int64(2))
	if err != nil {
		t.Fatal(err)
	}
	p0Node := w.MustAddNode("part0")
	p0, err := p0Node.Bootstrap("fast_p")
	if err != nil {
		t.Fatal(err)
	}
	p1Node := w.MustAddNode("part1")
	p1, err := p1Node.Bootstrap("slow_p")
	if err != nil {
		t.Fatal(err)
	}
	clientNode := w.MustAddNode("client")
	g, client, err := clientNode.NewDriver("c")
	if err != nil {
		t.Fatal(err)
	}
	reply := g.MustNewPort(ClientReplyType, 8)
	ops := xrep.Seq{
		xrep.Seq{p0.Ports[0], SlotOp("unit", 2)},
		xrep.Seq{p1.Ports[0], SlotOp("unit", 2)},
	}
	if err := client.SendReplyTo(created.Ports[0], reply.Name(), "begin", "tx1", ops); err != nil {
		t.Fatal(err)
	}
	// Both prepares are delivered almost instantly; participant 1 sits in
	// its 250 ms prepare. Sever coord→part1 now: the vote (part1→coord)
	// will still flow, but the commit decision cannot reach part1.
	time.Sleep(50 * time.Millisecond)
	w.Net().SetLink("coord", "part1", &netsim.Config{LossRate: 1.0})
	m, st := client.Receive(testTimeout, reply)
	if st != guardian.RecvOK || m.Command != OutcomeCommitted {
		t.Fatalf("tx1 outcome: %v %v (both votes arrived)", st, m)
	}
	g1, _ := p1Node.GuardianByID(p1.GuardianID)
	if ph, _ := ParticipantPhase(g1, "tx1"); ph != "prepared" {
		t.Fatalf("participant 1 phase %s, want prepared (decision severed)", ph)
	}
	// Crash the prepared participant; its promise is durable.
	p1Node.Crash()
	if err := p1Node.Restart(); err != nil {
		t.Fatal(err)
	}
	w.Net().SetLink("coord", "part1", nil)
	h := struct {
		partNodes []*guardian.Node
		partIDs   []uint64
		coordNode *guardian.Node
	}{
		partNodes: []*guardian.Node{p0Node, p1Node},
		partIDs:   []uint64{p0.GuardianID, p1.GuardianID},
		coordNode: coordNode,
	}
	// Crash and recover the coordinator: its decision log shows tx1
	// unsettled, so recovery re-drives the commit phase.
	h.coordNode.Crash()
	if err := h.coordNode.Restart(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		g1, ok := h.partNodes[1].GuardianByID(h.partIDs[1])
		if ok {
			if ph, _ := ParticipantPhase(g1, "tx1"); ph == "committed" {
				break
			}
		}
		if time.Now().After(deadline) {
			ph := "gone"
			if ok {
				ph, _ = ParticipantPhase(g1, "tx1")
			}
			t.Fatalf("participant 1 never learned the decision after recovery (phase %s)", ph)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And the resource state matches.
	g1b, _ := h.partNodes[1].GuardianByID(h.partIDs[1])
	resb, _ := ParticipantResource(g1b)
	if got := resb.(*slowResource).Committed("unit"); got != 2 {
		t.Fatalf("recovered participant committed %d, want 2", got)
	}
}

// TestLatePrepareAfterPresumedAbortVotesNo: an abort that overtakes its
// prepare is remembered, so the late prepare votes no and holds nothing —
// before and after a crash. Acking the abort without a record let the late
// prepare vote yes and hold its units forever: the coordinator had already
// settled the transaction and would never ask again.
func TestLatePrepareAfterPresumedAbortVotesNo(t *testing.T) {
	h := newHarness(t, 1, netsim.Config{}, 10)
	g, drv, err := h.w.MustAddNode("drv").NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	votes := g.MustNewPort(CoordReplyType, 8)
	step := func(want, cmd string, args ...any) {
		t.Helper()
		if err := drv.SendReplyTo(h.parts[0], votes.Name(), cmd, args...); err != nil {
			t.Fatal(err)
		}
		m, st := drv.Receive(testTimeout, votes)
		if st != guardian.RecvOK || m.Command != want {
			t.Fatalf("%s: %v %v, want %s", cmd, st, m, want)
		}
	}
	held := func() int64 {
		t.Helper()
		return h.resources(t)[0].Held("unit")
	}
	step("ack_abort", "abort", "late")
	step("vote_no", "prepare", "late", SlotOp("unit", 3))
	if n := held(); n != 0 {
		t.Fatalf("a prepare after its abort holds %d units", n)
	}
	h.partNodes[0].Crash()
	if err := h.partNodes[0].Restart(); err != nil {
		t.Fatal(err)
	}
	step("vote_no", "prepare", "late", SlotOp("unit", 3))
	if n := held(); n != 0 {
		t.Fatalf("after recovery, a prepare after its abort holds %d units", n)
	}
}

func TestCoordinatorCrashBeforeDecisionAborts(t *testing.T) {
	// If the coordinator dies before logging a decision, the transaction
	// never decided; prepared participants stay prepared (blocking is
	// 2PC's known weakness — we only verify nothing commits).
	h := newHarness(t, 2, netsim.Config{}, 10)
	// Sever vote replies so the coordinator stalls in the vote phase.
	h.w.Net().SetLink("part0", "coord", &netsim.Config{LossRate: 1.0})
	h.w.Net().SetLink("part1", "coord", &netsim.Config{LossRate: 1.0})
	ops := make(xrep.Seq, len(h.parts))
	for i, p := range h.parts {
		ops[i] = xrep.Seq{p, SlotOp("unit", 1)}
	}
	if err := h.client.SendReplyTo(h.coordPort, h.clientReply.Name(), "begin", "tx1", ops); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let prepares land
	h.coordNode.Crash()
	if err := h.coordNode.Restart(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	for i, r := range h.resources(t) {
		if got := r.Committed("unit"); got != 0 {
			t.Fatalf("participant %d committed %d units without a decision", i, got)
		}
	}
}

// deliver runs one message through p's table the way an installed arm
// does, with Apply standing in for the host's log, and returns the answer.
func deliver(p *Participant, cmd, txid string, op xrep.Value) string {
	r := p.decide(cmd, txid, op)
	if r.step != "" {
		if err := p.Apply(r.step, txid, op); err != nil {
			panic(err)
		}
	}
	return r.reply
}

func TestSlotResourceBasics(t *testing.T) {
	s := NewSlotResource(map[string]int64{"seat": 2})
	p := NewParticipant(s)
	if deliver(p, "prepare", "t1", SlotOp("seat", 1)) != "vote_yes" {
		t.Fatal("prepare 1 of 2")
	}
	if deliver(p, "prepare", "t1", SlotOp("seat", 1)) != "vote_yes" {
		t.Fatal("idempotent re-prepare")
	}
	if deliver(p, "prepare", "t2", SlotOp("seat", 1)) != "vote_yes" {
		t.Fatal("prepare 2 of 2")
	}
	if deliver(p, "prepare", "t3", SlotOp("seat", 1)) != "vote_no" {
		t.Fatal("overcommitted hold accepted")
	}
	if s.Available("seat") != 0 {
		t.Fatalf("available = %d", s.Available("seat"))
	}
	deliver(p, "commit", "t1", nil)
	deliver(p, "abort", "t2", nil)
	if s.Committed("seat") != 1 || s.Held("seat") != 0 || s.Available("seat") != 1 {
		t.Fatalf("state: committed=%d held=%d avail=%d",
			s.Committed("seat"), s.Held("seat"), s.Available("seat"))
	}
	deliver(p, "commit", "t1", nil) // idempotent
	deliver(p, "abort", "t9", nil)  // unknown: remembered, no effect
	if s.Committed("seat") != 1 || s.Held("seat") != 0 {
		t.Fatal("idempotent commit re-applied")
	}
}

func TestSlotResourceRejectsMalformedOps(t *testing.T) {
	s := NewSlotResource(map[string]int64{"seat": 5})
	bad := []xrep.Value{
		xrep.Int(1),
		xrep.Seq{xrep.Str("seat")},
		xrep.Seq{xrep.Int(1), xrep.Int(2)},
		SlotOp("seat", 0),
		SlotOp("seat", -3),
		SlotOp("unknown-item", 1),
	}
	for _, op := range bad {
		if s.Vote(op) {
			t.Fatalf("malformed op accepted: %v", op)
		}
	}
}

func TestCoordinatorDecisionInspector(t *testing.T) {
	h := newHarness(t, 2, netsim.Config{}, 10)
	if out := h.begin(t, "tx1", 1); out != OutcomeCommitted {
		t.Fatal(out)
	}
	cg, ok := h.coordNode.GuardianByID(h.coordID)
	if !ok {
		t.Fatal("coordinator gone")
	}
	outcome, settled, known := CoordinatorDecision(cg, "tx1")
	if !known || outcome != OutcomeCommitted || !settled {
		t.Fatalf("decision = %q settled=%v known=%v", outcome, settled, known)
	}
	if _, _, known := CoordinatorDecision(cg, "ghost"); known {
		t.Fatal("unknown tx reported known")
	}
}

// TestVoteTally: a yes vote, and an ack, counts only from one of the
// transaction's own participants — a reply's provenance is its node and
// guardian — and once for each; a begin naming one participant twice is
// refused, since that participant answers once for both.
func TestVoteTally(t *testing.T) {
	p1 := xrep.PortName{Node: "n1", Guardian: 2, Port: 1}
	p2 := xrep.PortName{Node: "n2", Guardian: 2, Port: 1}
	type from struct {
		node     string
		guardian uint64
	}
	for _, tc := range []struct {
		name    string
		parts   []xrep.PortName
		replies []from
		counted int
		repeats bool
	}{
		{"each participant once", []xrep.PortName{p1, p2}, []from{{"n2", 2}, {"n1", 2}}, 2, false},
		{"one participant twice", []xrep.PortName{p1, p2}, []from{{"n1", 2}, {"n1", 2}}, 1, false},
		{"a stranger", []xrep.PortName{p1, p2}, []from{{"n3", 2}, {"n1", 2}}, 1, false},
		{"another guardian on a participant's node", []xrep.PortName{p1}, []from{{"n1", 3}}, 0, false},
		{"a participant's guardian by its node alone", []xrep.PortName{p1, p2}, []from{{"n2", 9}, {"n1", 9}}, 0, false},
		{"no participants", nil, []from{{"n1", 2}}, 0, false},
		{"one participant named twice", []xrep.PortName{p1, p1}, []from{{"n1", 2}}, 1, true},
		{"one participant's two ports", []xrep.PortName{p1, {Node: "n1", Guardian: 2, Port: 7}, p2}, nil, 0, true},
	} {
		d := &decision{txid: "tx"}
		for _, p := range tc.parts {
			d.ops = append(d.ops, txOp{participant: p, op: SlotOp("unit", 1)})
		}
		seen := make([]bool, len(d.ops))
		counted := 0
		for _, r := range tc.replies {
			if d.mark(seen, r.node, r.guardian) {
				counted++
			}
		}
		if counted != tc.counted || d.repeats() != tc.repeats {
			t.Errorf("%s: counted %d, repeats %v; want %d, %v", tc.name, counted, d.repeats(), tc.counted, tc.repeats)
		}
	}
}

// TestBeginNamingOneParticipantTwiceIsRefused: such a begin is answered
// aborted at once and logs nothing, so the participant never prepares and
// holds nothing. The coordinator used to prepare the first op, count the
// participant's one yes as one of two, and abort only when the vote
// timeout ran out.
func TestBeginNamingOneParticipantTwiceIsRefused(t *testing.T) {
	h := newHarness(t, 1, netsim.Config{}, 10)
	if out := h.begin(t, "once", 1); out != OutcomeCommitted { // both guardians are up
		t.Fatalf("once: %s", out)
	}
	ops := xrep.Seq{xrep.Seq{h.parts[0], SlotOp("unit", 1)}, xrep.Seq{h.parts[0], SlotOp("unit", 2)}}
	start := time.Now()
	if err := h.client.SendReplyTo(h.coordPort, h.clientReply.Name(), "begin", "twice", ops); err != nil {
		t.Fatal(err)
	}
	m, st := h.client.Receive(testTimeout, h.clientReply)
	if st != guardian.RecvOK || m.Command != OutcomeAborted {
		t.Fatalf("begin naming one participant twice: %v %v, want aborted", st, m)
	}
	if waited := time.Since(start); waited >= 500*time.Millisecond {
		t.Errorf("the refusal took %v, the harness's whole vote timeout", waited)
	}
	g, _ := h.partNodes[0].GuardianByID(h.partIDs[0])
	if phase, _ := ParticipantPhase(g, "twice"); phase != "unknown" {
		t.Errorf("the participant's phase is %s, want unknown: it was asked to prepare", phase)
	}
	if held := h.resources(t)[0].Held("unit"); held != 0 {
		t.Errorf("the participant holds %d units", held)
	}
	cg, _ := h.coordNode.GuardianByID(h.coordID)
	if outcome, _, known := CoordinatorDecision(cg, "twice"); known {
		t.Errorf("the coordinator logged a decision (%s) for a refused begin", outcome)
	}
}

// TestSettledDecisionKeepsOnlyItsOutcome: once settled — live, and when
// recovery folds the settled record — a decision keeps no ops and no sends,
// so the begin's values are not held for the life of the process; a
// duplicate begin is still answered with the outcome and the inspector
// still reports it.
func TestSettledDecisionKeepsOnlyItsOutcome(t *testing.T) {
	h := newHarness(t, 2, netsim.Config{}, 10)
	if out := h.begin(t, "tx1", 1); out != OutcomeCommitted {
		t.Fatalf("tx1: %s", out)
	}
	check := func(when string) {
		t.Helper()
		// Answered only once the coordinator has replayed its log.
		if out := h.begin(t, "tx1", 1); out != OutcomeCommitted {
			t.Errorf("%s: a duplicate begin is answered %s", when, out)
		}
		cg, ok := h.coordNode.GuardianByID(h.coordID)
		if !ok {
			t.Fatal("coordinator gone")
		}
		st := cg.State().(*coordState)
		st.mu.Lock()
		d, ok := st.decisions["tx1"]
		kept := ok && (d.ops != nil || d.args != nil)
		st.mu.Unlock()
		if !ok || kept {
			t.Errorf("%s: the settled decision is gone (%v) or keeps its ops or sends (%v)", when, !ok, kept)
		}
		if outcome, settled, known := CoordinatorDecision(cg, "tx1"); !known || !settled || outcome != OutcomeCommitted {
			t.Errorf("%s: decision %q settled=%v known=%v", when, outcome, settled, known)
		}
	}
	check("live")
	h.coordNode.Crash()
	if err := h.coordNode.Restart(); err != nil {
		t.Fatal(err)
	}
	check("recovered")
	for _, r := range h.resources(t) {
		if got := r.Committed("unit"); got != 1 {
			t.Fatalf("a duplicate begin re-ran tx1: committed %d, want 1", got)
		}
	}
}
