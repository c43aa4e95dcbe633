package amo

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/durable"
	"repro/internal/guardian"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// Request is one decoded at-most-once request as the handler sees it.
type Request struct {
	// Command and Args are the application command and its arguments.
	Command string
	Args    xrep.Seq
	// Client and Seq form the request id.
	Client string
	Seq    int64
	// SrcNode and SrcGuardian identify the sending guardian, usable as an
	// access-control principal exactly like on a raw message.
	SrcNode     string
	SrcGuardian uint64
}

// Handler executes one request and returns the reply's outcome command and
// arguments, and readOnly: the handler's, never the client's, declaration
// that the command has no effect in any state (a read; not a refused
// withdraw, whose duplicate could succeed). A read-only reply is cached but
// not logged. The handler runs on the guardian's own process, so it may
// use the guardian's state under the guardian's usual locking discipline.
// It is called AT MOST ONCE per request id, a read-only one again after a
// crash: replays get the cached reply.
type Handler func(pr *guardian.Process, req Request) (outcome string, args xrep.Seq, readOnly bool)

// dedupLogRec names the stable-log record that persists one executed
// request's cached reply.
const dedupLogRec = "amo/dedup"

// maxPerClient bounds the cached replies kept per client beyond the
// ack-watermark pruning (a safety net against a client that never acks).
const maxPerClient = 128

// DedupOptions tunes a Dedup filter.
type DedupOptions struct {
	// Log, when non-nil, persists every executed request's reply — the
	// §2.2 log-then-reply protocol — so Recover can rebuild the table and
	// at-most-once survives a crash. A read-only request's reply is cached
	// but not logged.
	Log durable.Log
	// Metrics receives the filter's counters. Nil means Default.
	Metrics *Metrics
}

// cached is one retained reply.
type cached struct {
	outcome string
	args    xrep.Seq
}

// session is the dedup state for one client.
type session struct {
	// pruned is the high-water mark: every seq at or below it has been
	// answered and the reply discarded. A request at or below it is a
	// duplicate by construction and is dropped without execution.
	pruned int64
	// replies caches the reply for every answered, un-pruned seq.
	replies map[int64]cached
	// executing marks seqs whose handler is currently running, so a
	// duplicate racing the first delivery is dropped, not re-executed.
	executing map[int64]bool
}

// Dedup is the server half of the at-most-once layer: a filter a guardian
// interposes on its receive loop (via Hook or Serve) that executes each
// request id exactly once and answers replays from a cached-reply table.
type Dedup struct {
	opts DedupOptions

	mu       sync.Mutex
	sessions map[string]*session
	// scratch is the buffer dedup records are encoded in; handle takes it
	// (leaving nil) while it executes, so two processes sharing a filter
	// never write one buffer.
	scratch []byte
}

// NewDedup builds an empty filter.
func NewDedup(opts DedupOptions) *Dedup {
	return &Dedup{opts: opts, sessions: make(map[string]*session)}
}

// Hook adapts the filter to guardian.Receiver.Intercept: install it with
//
//	NewReceiver(ports...).Intercept(d.Hook(handler), amo.ReqCommand)
//
// so the filter owns every amo_req envelope while the guardian's ordinary
// arms keep handling its native commands on the same ports.
func (d *Dedup) Hook(h Handler) func(pr *guardian.Process, m *guardian.Message) bool {
	return func(pr *guardian.Process, m *guardian.Message) bool {
		if m.Command != ReqCommand {
			return false
		}
		d.handle(pr, m, h)
		return true
	}
}

// Serve runs a receive loop over the given ports dedicated to at-most-once
// traffic. Guardians that mix amo with native commands use Hook on their
// own Receiver instead.
func (d *Dedup) Serve(pr *guardian.Process, h Handler, ports ...*guardian.Port) {
	// No failure arm: the duplicate table re-answers the client's retry.
	guardian.NewReceiver(ports...).
		Intercept(d.Hook(h), ReqCommand).
		Loop(pr, nil)
}

// ParseRequest decodes an amo_req envelope. The returned ack is the
// client's prune watermark. Exported so a guardian that deliberately
// serves envelopes WITHOUT dedup (an experiment's control arm) can share
// the wire format.
func ParseRequest(m *guardian.Message) (req Request, ack int64) {
	return Request{
		Client:      m.Str(0),
		Seq:         m.Int(1),
		Command:     m.Str(3),
		Args:        m.Seq(4),
		SrcNode:     m.SrcNode,
		SrcGuardian: m.SrcGuardian,
	}, m.Int(2)
}

// SendReply answers an envelope directly — the reply path Dedup uses,
// exported for the same no-dedup control-arm use as ParseRequest.
func SendReply(pr *guardian.Process, m *guardian.Message, outcome string, args xrep.Seq) {
	sendReply(pr, m, m.Int(1), outcome, args)
}

// sendReply writes the reply envelope [seq, outcome, args] field by field
// into a scratch of its own and sends it to the request's reply port, if it
// named one. Best-effort, like any no-wait send: a lost reply, or one the
// world's Limits refuse, is the client's retry's problem.
func sendReply(pr *guardian.Process, m *guardian.Message, seq int64, outcome string, args xrep.Seq) {
	if m.ReplyTo.IsZero() {
		return
	}
	l := pr.Guardian().Node().World().Limits()
	if errors.Join(l.Check(xrep.KindSeq, 3, 0), l.CheckInt(seq),
		l.Check(xrep.KindString, len(outcome), 1), l.ValidateAt(args, 1)) != nil {
		return
	}
	var scratch [128]byte
	rep := wire.AppendStr(wire.AppendInt(wire.AppendSeqHeader(scratch[:0], 3), seq), outcome)
	rep, _ = wire.AppendSeq(rep, args) // a validated sequence encodes
	_ = pr.SendEncoded(m.ReplyTo, xrep.PortName{}, ReplyCommand, rep)
}

// SendMoved answers an envelope with the OutcomeMoved routing redirect:
// the key's range is owned by the guardian behind owner, as of the given
// ring epoch. Deliberately NOT logged and NOT cached — a redirect is
// derivable routing state, and caching it would burn a durable write per
// misrouted request. A shard's ownership filter sends it BEFORE the dedup
// hook runs (guardian.Receiver.Intercept order), which is safe exactly
// because migration ships the dedup table with the range: a request id the
// old owner already executed is redirected too, and answered from the NEW
// owner's cache.
func SendMoved(pr *guardian.Process, m *guardian.Message, owner xrep.PortName, epoch int64) {
	SendReply(pr, m, OutcomeMoved, xrep.Seq{owner, xrep.Int(epoch)})
}

// handle processes one envelope: drop (already pruned), replay (cached),
// or execute-log-reply (fresh).
func (d *Dedup) handle(pr *guardian.Process, m *guardian.Message, h Handler) {
	req, ack := ParseRequest(m)
	met := orDefault(d.opts.Metrics)

	d.mu.Lock()
	s, ok := d.sessions[req.Client]
	if !ok {
		s = &session{replies: make(map[int64]cached), executing: make(map[int64]bool)}
		// The id outlives the request it was first seen in.
		d.sessions[strings.Clone(req.Client)] = s
	}
	switch {
	case req.Seq <= s.pruned:
		// Answered and forgotten: the client's own ack proved it holds
		// the reply, so this stray duplicate needs no answer.
		d.mu.Unlock()
		met.CallsDeduped.Inc()
		return
	case s.executing[req.Seq]:
		// The first delivery is still running its handler; the client's
		// retry will be answered from the cache once it lands.
		d.mu.Unlock()
		met.CallsDeduped.Inc()
		return
	default:
		if c, ok := s.replies[req.Seq]; ok {
			d.mu.Unlock()
			met.CallsDeduped.Inc()
			met.RepliesReplayed.Inc()
			sendReply(pr, m, req.Seq, c.outcome, c.args)
			return
		}
	}
	s.executing[req.Seq] = true
	// Take the record scratch for this execution; a second process in the
	// filter meanwhile finds nil and grows its own.
	buf := d.scratch
	d.scratch = nil
	d.mu.Unlock()

	outcome, outArgs, readOnly := h(pr, req)
	c := cached{outcome: outcome, args: outArgs}

	// Log-then-reply unless nothing changed: a reply that may reflect an
	// effect must be durable before the client can observe it, or a crash
	// between reply and log would let a replay after recovery re-execute
	// the handler. A read forces nothing unless the log holds a volatile
	// tail, which the read may have observed.
	if d.opts.Log != nil && (!readOnly || d.opts.Log.VolatileLen() > 0) {
		// Append copies the record, so the scratch is free again as soon
		// as AppendSync returns.
		buf = appendDedupRec(buf[:0], req.Client, req.Seq, ack, c)
		d.opts.Log.AppendSync(buf)
	}

	d.mu.Lock()
	d.scratch = buf
	delete(s.executing, req.Seq)
	s.replies[req.Seq] = c
	s.prune(ack)
	s.bound(maxPerClient)
	d.mu.Unlock()

	sendReply(pr, m, req.Seq, c.outcome, c.args)
}

// prune applies the client's ack watermark: every cached reply at or below
// it is provably held by the client and may be forgotten.
func (s *session) prune(ack int64) {
	if ack <= s.pruned {
		return
	}
	for seq := range s.replies {
		if seq <= ack {
			delete(s.replies, seq)
		}
	}
	s.pruned = ack
}

// bound enforces MaxPerClient by discarding the OLDEST cached replies and
// raising the watermark over them; with a well-behaved sequential client
// the table holds at most one entry, so this only fires for a client that
// stopped acking.
func (s *session) bound(max int) {
	if len(s.replies) <= max {
		return
	}
	seqs := make([]int64, 0, len(s.replies))
	for seq := range s.replies {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs[:len(seqs)-max] {
		delete(s.replies, seq)
		if seq > s.pruned {
			s.pruned = seq
		}
	}
}

// Cached reports how many replies are currently retained for the client —
// an observability hook for tests and experiments.
func (d *Dedup) Cached(client string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.sessions[client]
	if !ok {
		return 0
	}
	return len(s.replies)
}

// appendDedupRec appends one executed request's stable-log record to dst:
// the record amo/dedup(client, seq, ack, outcome, args), a nil args
// written as the empty sequence.
func appendDedupRec(dst []byte, client string, seq, ack int64, c cached) []byte {
	dst = wire.AppendRecHeader(dst, dedupLogRec, 5)
	dst = wire.AppendStr(dst, client)
	dst = wire.AppendInt(dst, seq)
	dst = wire.AppendInt(dst, ack)
	dst = wire.AppendStr(dst, c.outcome)
	dst, err := wire.AppendSeq(dst, c.args)
	if err != nil {
		panic(fmt.Sprintf("amo: marshal dedup record: %v", err))
	}
	return dst
}

// Recover rebuilds the dedup table from the filter's own log through
// guardian.Replay with Fold as the only folder, and reports how many
// records it folded. A guardian whose log the filter shares passes Fold
// to its own replay instead, so each record is read once.
func (d *Dedup) Recover() (int, error) {
	if d.opts.Log == nil {
		return 0, nil
	}
	n := 0
	err := guardian.Replay(d.opts.Log, nil, func(v xrep.Value) (bool, error) {
		mine, err := d.Fold(v)
		if mine && err == nil {
			n++
		}
		return mine, err
	})
	if err != nil {
		err = fmt.Errorf("amo: recover dedup %w", err)
	}
	return n, err
}

// Fold is the filter's folder (guardian.Folder): it re-applies one
// amo/dedup record's reply cache and ack watermark. A guardian's recovery
// folds them in log order before serving, so a request the pre-crash
// incarnation already executed is answered from the cache, never
// re-executed — at-most-once across the crash.
func (d *Dedup) Fold(v xrep.Value) (bool, error) {
	if xrep.RecName(v) != dedupLogRec {
		return false, nil // not ours; the log may be shared
	}
	f := xrep.ReadRec(v, dedupLogRec, 5)
	client, seq, ack := f.Str(), f.Int(), f.Int()
	c := cached{outcome: f.Str(), args: f.Seq()}
	if err := f.Err(); err != nil {
		return true, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.sessions[client]
	if !ok {
		s = &session{replies: make(map[int64]cached), executing: make(map[int64]bool)}
		d.sessions[client] = s
	}
	if seq > s.pruned {
		s.replies[seq] = c
	}
	s.prune(ack)
	s.bound(maxPerClient)
	return true, nil
}

// Snapshot captures the dedup table as a value suitable for inclusion in
// a guardian's checkpoint state, so the log records already folded into
// the table can be compacted away. Clients and seqs are emitted in sorted
// order: the same table always snapshots to the same bytes.
func (d *Dedup) Snapshot() xrep.Value {
	d.mu.Lock()
	defer d.mu.Unlock()
	clients := make([]string, 0, len(d.sessions))
	for c := range d.sessions {
		clients = append(clients, c)
	}
	sort.Strings(clients)
	out := make(xrep.Seq, 0, len(clients))
	for _, c := range clients {
		s := d.sessions[c]
		seqs := make([]int64, 0, len(s.replies))
		for seq := range s.replies {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		entries := make(xrep.Seq, 0, len(seqs))
		for _, seq := range seqs {
			r := s.replies[seq]
			args := r.args
			if args == nil {
				args = xrep.Seq{}
			}
			entries = append(entries, xrep.Seq{xrep.Int(seq), xrep.Str(r.outcome), args})
		}
		out = append(out, xrep.Rec{Name: "amo/session", Fields: xrep.Seq{
			xrep.Str(c), xrep.Int(s.pruned), entries,
		}})
	}
	return out
}

// parseSnapshot decodes a Snapshot value into a fresh session table.
func parseSnapshot(v xrep.Value) (map[string]*session, error) {
	list := xrep.ReadSeq(v, 0)
	sessions := make(map[string]*session)
	for list.More() {
		f := xrep.ReadRec(list.Value(), "amo/session", 3)
		client := f.Str()
		s := &session{
			pruned:    f.Int(),
			replies:   make(map[int64]cached),
			executing: make(map[int64]bool),
		}
		entries := f.Seq()
		if err := f.Err(); err != nil {
			return nil, fmt.Errorf("amo: restore: %w", err)
		}
		for _, ev := range entries {
			e := xrep.ReadSeq(ev, 3)
			rseq := e.Int()
			s.replies[rseq] = cached{outcome: e.Str(), args: e.Seq()}
			if err := e.Err(); err != nil {
				return nil, fmt.Errorf("amo: restore: reply entry: %w", err)
			}
		}
		sessions[client] = s
	}
	if err := list.Err(); err != nil {
		return nil, fmt.Errorf("amo: restore: %w", err)
	}
	return sessions, nil
}

// Restore rebuilds the table from a Snapshot value, replacing the current
// contents. A recovering guardian calls Restore with the checkpoint's
// snapshot first, then Recover to fold in the log records written after
// the checkpoint was taken.
func (d *Dedup) Restore(v xrep.Value) error {
	sessions, err := parseSnapshot(v)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.sessions = sessions
	d.mu.Unlock()
	return nil
}

// MergeSnapshot folds another guardian's Snapshot into this table without
// discarding what is already here — the receiving half of dedup handoff
// during a shard migration. Watermarks take the max and cached replies
// union (an id present on both sides carries the same reply, since an id
// executes on exactly one side before the range moves). After the merge, a
// client retry of an op the old owner executed is answered from this
// table's cache instead of re-executing — exactly-once across migration.
func (d *Dedup) MergeSnapshot(v xrep.Value) error {
	incoming, err := parseSnapshot(v)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for client, in := range incoming {
		s, ok := d.sessions[client]
		if !ok {
			d.sessions[client] = in
			continue
		}
		for seq, c := range in.replies {
			if _, dup := s.replies[seq]; !dup && seq > s.pruned {
				s.replies[seq] = c
			}
		}
		s.prune(in.pruned)
		s.bound(maxPerClient)
	}
	return nil
}
