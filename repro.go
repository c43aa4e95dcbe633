// Package repro is the public facade of this reproduction of Barbara
// Liskov's "Primitives for Distributed Computing" (SOSP 1979).
//
// The paper proposes two families of primitives for distributed programs:
//
//   - guardians (§2): the modular unit — an abstract node owning objects,
//     ports and processes, communicating with other guardians only by
//     messages, providing permanence of effect for the resource it guards;
//   - the no-wait send and receive-with-timeout (§3): typed messages sent
//     to globally named ports, best-effort delivery, system failure
//     messages, and user-controlled transmission of abstract values.
//
// This package re-exports the guardian, send/receive and at-most-once API
// from the internal packages so that a downstream user needs a single
// import:
//
//	w := repro.NewWorld(repro.Config{})
//	n := w.MustAddNode("alpha")
//	pt := repro.NewPortType("echo_port").Msg("echo", repro.KindString)
//	w.MustRegister(&repro.GuardianDef{ ... })
//
// The facade is the downstream API: internal/… cannot be imported from
// outside this module, so it is the only way another module can name a
// World, a Process or the §3 sends. The root Examples (example_test.go)
// check it. The substrates and harnesses built around the primitives —
// transports, the WAL, replication, the simulator — are reached through
// cmd/*, which imports internal/… directly. internal/exp holds the
// experiment harness that regenerates every figure-level claim of the
// paper (see DESIGN.md and EXPERIMENTS.md).
package repro

import (
	"repro/internal/amo"
	"repro/internal/guardian"
	"repro/internal/netsim"
	"repro/internal/sendprim"
	"repro/internal/xrep"
)

// Core runtime types.
type (
	// World is a complete distributed program: nodes, network, library.
	World = guardian.World
	// Config configures a World.
	Config = guardian.Config
	// Node is a physical node hosting guardians.
	Node = guardian.Node
	// Guardian is the paper's modular unit.
	Guardian = guardian.Guardian
	// GuardianDef is a guardian definition registered in the library.
	GuardianDef = guardian.GuardianDef
	// Ctx is handed to a guardian's Init/Recover process.
	Ctx = guardian.Ctx
	// Process is the execution of a sequential program in a guardian.
	Process = guardian.Process
	// Port is a one-directional, buffered gateway into a guardian.
	Port = guardian.Port
	// PortType describes a port by the messages it accepts.
	PortType = guardian.PortType
	// Message is a received message.
	Message = guardian.Message
	// Receiver is the receive-statement builder.
	Receiver = guardian.Receiver
	// Created reports the result of guardian creation.
	Created = guardian.Created
	// RecvStatus reports how a receive ended.
	RecvStatus = guardian.RecvStatus
	// RingTracer retains the most recent runtime events.
	RingTracer = guardian.RingTracer

	// NetConfig is the network fault/delay model.
	NetConfig = netsim.Config

	// Value is a node of the external representation model (§3.3).
	Value = xrep.Value
	// PortName is the global name of a port.
	PortName = xrep.PortName
	// CallOptions tunes a remote transaction send.
	CallOptions = sendprim.CallOptions

	// AMOCaller issues at-most-once calls over the no-wait send.
	AMOCaller = amo.Caller
	// AMOCallerOptions tunes an AMOCaller.
	AMOCallerOptions = amo.CallerOptions
	// AMOBackoff is the capped exponential backoff + jitter policy.
	AMOBackoff = amo.BackoffPolicy
	// AMODedup is the server-side duplicate filter with cached replies.
	AMODedup = amo.Dedup
	// AMODedupOptions tunes an AMODedup.
	AMODedupOptions = amo.DedupOptions
	// AMORequest is a deduplicated request handed to a handler.
	AMORequest = amo.Request
	// AMOReply is the decoded reply of an at-most-once call.
	AMOReply = amo.Reply
)

// Constructors and helpers.
var (
	// NewWorld creates an empty world.
	NewWorld = guardian.NewWorld
	// NewPortType starts a port type description.
	NewPortType = guardian.NewPortType
	// NewReceiver starts a receive statement over ports.
	NewReceiver = guardian.NewReceiver
	// PrimordialPort names a node's primordial guardian port.
	PrimordialPort = guardian.PrimordialPort
	// NewRingTracer creates a bounded event tracer.
	NewRingTracer = guardian.NewRingTracer
	// SyncSend is the synchronization send built on the no-wait send.
	SyncSend = sendprim.SyncSend
	// Call is the remote transaction send built on the no-wait send.
	Call = sendprim.Call
	// Acknowledge completes the receiving half of a synchronization send.
	Acknowledge = sendprim.Acknowledge
	// NewAMOCaller creates an at-most-once caller for a driver process.
	NewAMOCaller = amo.NewCaller
	// NewAMODedup creates a server-side at-most-once filter.
	NewAMODedup = amo.NewDedup
	// AMOReqType is the port type a guardian provides to accept amo calls.
	AMOReqType = amo.ReqType
)

// Receive statuses.
const (
	// RecvOK: a message was removed from a port.
	RecvOK = guardian.RecvOK
	// RecvTimeout: the timeout arm was selected.
	RecvTimeout = guardian.RecvTimeout
	// RecvKilled: the guardian died while waiting.
	RecvKilled = guardian.RecvKilled
	// Infinite waits forever in Receive.
	Infinite = guardian.Infinite
	// FailureCommand is the implicit system failure message.
	FailureCommand = guardian.FailureCommand
	// AnyKind is the wildcard argument kind in message specs.
	AnyKind = guardian.AnyKind
)

// Value kinds for port type declarations.
const (
	KindNull     = xrep.KindNull
	KindBool     = xrep.KindBool
	KindInt      = xrep.KindInt
	KindReal     = xrep.KindReal
	KindString   = xrep.KindString
	KindBytes    = xrep.KindBytes
	KindSeq      = xrep.KindSeq
	KindRec      = xrep.KindRec
	KindPortName = xrep.KindPortName
	KindToken    = xrep.KindToken
)
