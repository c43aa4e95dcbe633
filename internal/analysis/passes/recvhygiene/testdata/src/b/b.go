// Package b is the replication-era golden input for the recvhygiene
// pass: the receive shapes the replica runtime introduced — a control
// port multiplexing the replication stream, the election protocol and
// name-service replies — checked in both the armed form the real
// receive loop uses and the armless forms it must never regress to.
package b

import (
	"time"

	"repro/internal/guardian"
	"repro/internal/nameserv"
	"repro/internal/replica"
)

// replicationLoop mirrors replica.Runtime.receiveLoop: one receiver over
// the control port plus the name-service reply port, every protocol
// message armed, and the §3.4 failure arm present for bounced sends to
// crashed members.
func replicationLoop(ctx *guardian.Ctx) {
	nsReply, err := ctx.G.NewPort(nameserv.ClientReplyType, 16)
	if err != nil {
		return
	}
	nop := func(*guardian.Process, *guardian.Message) {}
	guardian.NewReceiver(ctx.Ports[0], nsReply).
		When("rep_append", nop).
		When("rep_checkpoint", nop).
		When("rep_ack", nop).
		When("rep_heartbeat", nop).
		When("rep_vote_req", nop).
		When("rep_vote", nop).
		When("rep_whois", nop).
		When(nameserv.OutcomeBound, nop).
		When(nameserv.OutcomeDenied, nop).
		WhenFailure(func(_ *guardian.Process, _ string, _ *guardian.Message) {
			// Heartbeat silence, not bounces, is the failure detector.
		}).
		Loop(ctx.Proc, nil)
}

// electionLoopArmless is the regression shape: an election receiver with
// no failure arm and no timeout arm silently drops the report that a
// vote request bounced off a dead member — and a candidate that never
// times out waits forever on votes that may never come.
func electionLoopArmless(ctx *guardian.Ctx) {
	nop := func(*guardian.Process, *guardian.Message) {}
	guardian.NewReceiver(ctx.Ports[0]). // want `neither a failure arm`
						When("rep_vote_req", nop).
						When("rep_vote", nop).
						Loop(ctx.Proc, nil)
}

// ackLoop is the follower-ack shape: no failure arm, but the timeout arm
// doubles as the heartbeat-silence election trigger, which satisfies the
// pass.
func ackLoop(ctx *guardian.Ctx) {
	nop := func(*guardian.Process, *guardian.Message) {}
	guardian.NewReceiver(ctx.Ports[0]).
		When("rep_append", nop).
		When("rep_ack", nop).
		WhenTimeout(75*time.Millisecond, func(pr *guardian.Process) {
			// Leader silence: stand for election.
		}).
		Loop(ctx.Proc, nil)
}

// whoisBlocked is the client-side regression shape: asking a member who
// leads, then waiting forever for an answer a crashed member will never
// send, with no failure handling at all.
func whoisBlocked(pr *guardian.Process, member string, reply *guardian.Port) {
	_ = pr.Send(replica.PortAt(member), "rep_whois", reply.Name())
	m, _ := pr.Receive(guardian.Infinite, reply) // want `Infinite timeout and no failure handling`
	_ = m
}

// whoisChecked waits forever but routes the failure report, so a bounced
// rep_whois is seen rather than swallowed.
func whoisChecked(pr *guardian.Process, member string, reply *guardian.Port) {
	_ = pr.Send(replica.PortAt(member), "rep_whois", reply.Name())
	m, st := pr.Receive(guardian.Infinite, reply)
	if st == guardian.RecvOK && m.IsFailure() {
		return
	}
}
