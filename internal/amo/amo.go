// Package amo is an at-most-once session layer built purely from the
// paper's primitives — the no-wait send, reply ports, and receive with
// timeout — on top of whose deliberately weak guarantees ("messages may be
// lost or duplicated") it recovers exactly-once observable effect.
//
// The paper concedes in §3.5 that its remote transaction send may perform
// a request any number of times, which is only safe for idempotent
// commands like reserve and cancel. This package is the standard fix for
// everything else, layered strictly ON TOP of the primitive (the no-wait
// send itself stays best-effort, so the paper's layering claim is intact):
//
//   - the client-side Caller stamps every logical request with a
//     (client, seq) request id, retries with capped exponential backoff
//     plus jitter so a congested node is not melted by a retry storm, and
//     consults an optional Health subscription as a circuit breaker —
//     calls to a node currently marked down fail fast instead of burning
//     the whole retry budget; a call's Reply is the reply message itself,
//     its envelope peeled, whose values the caller already owns;
//   - the server-side Dedup filter wraps a guardian's receive loop
//     (via guardian.Receiver.Intercept), hands each fresh Request to the
//     Handler by value, detects replayed request ids, re-sends the cached
//     reply without re-executing the handler, and bounds its table with
//     per-client high-water-mark pruning; the table can be persisted
//     through stable.Log so at-most-once survives a crash and restart — a
//     new application of §2.2 permanence of effect. A reply the handler
//     returns as read-only is cached but not logged.
//
// Requests travel in a tagged envelope on a dedicated port type, so the
// layer composes with any guardian without changing its own port types.
package amo

import (
	"errors"

	"repro/internal/guardian"
	"repro/internal/metrics"
	"repro/internal/xrep"
)

// Package errors.
var (
	// ErrTimeout: every attempt timed out. The request may have been
	// performed AT MOST once — unlike the bare remote transaction send,
	// the dedup filter guarantees it was not performed twice.
	ErrTimeout = errors.New("amo: call exhausted retries")
	// ErrCircuitOpen: the target node is currently marked down by the
	// health subscription; the call failed fast without sending.
	ErrCircuitOpen = errors.New("amo: circuit open, target node marked down")
	// ErrFailed: the system reported a failure (dead port/guardian).
	ErrFailed = errors.New("amo: call failed")
	// ErrBusy: the Caller is strictly sequential; a second concurrent
	// Call on the same Caller is a programming error.
	ErrBusy = errors.New("amo: caller already has a call in flight")
)

// ReqCommand is the envelope command carried on an at-most-once port.
const ReqCommand = "amo_req"

// ReplyCommand is the envelope command of an at-most-once reply.
const ReplyCommand = "amo_reply"

// OutcomeMoved is the reserved reply outcome a sharded server sends when
// the request's key is owned elsewhere (package ring): args carry the
// owner's port and the server's ring epoch. The Caller treats it as a
// routing correction, not an answer — it re-sends the SAME request id to
// the new port, so an op the old owner executed before a migration is
// still deduplicated at the new owner (the dedup table travels with the
// range). Servers must send it WITHOUT executing or caching: it is
// regenerable routing state, never an effect.
const OutcomeMoved = "amo_moved"

// OutcomeSplit is the reserved reply outcome for a multi-key request
// whose keys no longer share an owner (a transfer straddling a shard
// boundary after a rebalance). It is terminal: the caller must re-issue
// the work as a distributed transaction (ring.Router falls back to tpc).
const OutcomeSplit = "amo_split"

// MaxRedirects bounds the moved-redirects one Call follows, so two
// servers mid-handoff pointing at each other degrade into a normal retry
// with backoff instead of a tight ping-pong that burns the budget.
const MaxRedirects = 16

// ReqType is the port type an at-most-once server provides. The envelope
// carries the request id (client, seq), the client's prune watermark (ack:
// the highest seq the client holds a reply for — everything at or below it
// may be forgotten), and the application command with its encoded
// arguments.
var ReqType = guardian.NewPortType("amo_req_port").
	Msg(ReqCommand,
		xrep.KindString, // client id
		xrep.KindInt,    // seq
		xrep.KindInt,    // ack watermark
		xrep.KindString, // application command
		xrep.KindSeq).   // application arguments
	Replies(ReqCommand, ReplyCommand)

// ReplyType is the port type of a Caller's reply port. The seq echo lets
// the caller discard stale and duplicated replies.
var ReplyType = guardian.NewPortType("amo_reply_port").
	Msg(ReplyCommand,
		xrep.KindInt,    // seq echo
		xrep.KindString, // outcome command
		xrep.KindSeq)    // outcome arguments

// Metrics aggregates the layer's event counters. A nil *Metrics anywhere
// in this package falls back to Default.
type Metrics struct {
	// Calls counts logical Caller.Call invocations.
	Calls metrics.Counter
	// Retries counts re-send attempts beyond each call's first.
	Retries metrics.Counter
	// CallsDeduped counts server-side envelope deliveries suppressed as
	// duplicates (replayed or already pruned).
	CallsDeduped metrics.Counter
	// RepliesReplayed counts cached replies re-sent without re-executing
	// the handler.
	RepliesReplayed metrics.Counter
	// CircuitOpen counts calls that failed fast on a down target.
	CircuitOpen metrics.Counter
	// Redirects counts moved-outcome replies followed to a new owner.
	Redirects metrics.Counter
	// RetryBackoffTotal accumulates nanoseconds slept in retry backoff.
	RetryBackoffTotal metrics.Counter
}

// Default receives the package's counters when no explicit Metrics is
// configured.
var Default = &Metrics{}

// orDefault returns m, or Default when m is nil.
func orDefault(m *Metrics) *Metrics {
	if m == nil {
		return Default
	}
	return m
}
