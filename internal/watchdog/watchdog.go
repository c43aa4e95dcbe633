// Package watchdog provides a failure-detector guardian: it probes the
// primordial guardian of each watched node with ping messages and tracks
// liveness from the replies and timeouts. It is the communication pattern
// of §3.4 distilled — "timeout is necessary because an expected response
// may not arrive due to software errors or hardware failures" — turned
// into a reusable service: subscribers receive node_down and node_up
// events on transitions.
//
// Like everything in this repository, the detector is built from the
// paper's primitives only: no-wait sends, a reply port, a receive with
// timeout, and a process that owns the schedule.
package watchdog

import (
	"sort"
	"sync"
	"time"

	"repro/internal/guardian"
	"repro/internal/xrep"
)

// DefName is the library name of the watchdog guardian definition.
const DefName = "watchdog"

// PortType describes the watchdog's control port.
var PortType = guardian.NewPortType("watchdog_port").
	Msg("watch", xrep.KindString).
	Replies("watch", "watching").
	Msg("unwatch", xrep.KindString).
	Replies("unwatch", "unwatched").
	Msg("status").
	Replies("status", "status_info").
	Msg("subscribe", xrep.KindPortName).
	Replies("subscribe", "subscribed")

// ClientReplyType receives watchdog control replies.
var ClientReplyType = guardian.NewPortType("watchdog_client_port").
	Msg("watching").
	Msg("unwatched").
	Msg("status_info", xrep.KindSeq).
	Msg("subscribed")

// EventPortType is what subscribers provide: node transition events.
var EventPortType = guardian.NewPortType("watchdog_event_port").
	Msg("node_down", xrep.KindString).
	Msg("node_up", xrep.KindString)

// nodeHealth is the detector's view of one node.
type nodeHealth struct {
	missed int
	up     bool
	known  bool // false until the first probe completes
}

type state struct {
	mu          sync.Mutex
	interval    time.Duration
	threshold   int
	watched     map[string]*nodeHealth
	subscribers []xrep.PortName
}

// Def returns the watchdog guardian definition. Creation arguments:
//
//	interval_ms Int — probe period
//	threshold   Int — consecutive missed pongs before a node is down
//
// Without creation arguments both knobs come from the world's Tuning
// (guardian.Config.Tuning), so a simulation can shrink every detector in
// the system deterministically from one place.
//
// The watchdog keeps no durable state: after a crash the owner re-creates
// it and watches are re-established (a failure detector's memory is only
// as good as its last probe anyway).
func Def() *guardian.GuardianDef {
	return &guardian.GuardianDef{
		TypeName: DefName,
		Provides: []*guardian.PortType{PortType},
		Init:     watchdogMain,
	}
}

func watchdogMain(ctx *guardian.Ctx) {
	tuning := ctx.G.Node().World().Tuning()
	st := &state{
		interval:  tuning.HeartbeatInterval,
		threshold: guardian.FailureThreshold,
		watched:   make(map[string]*nodeHealth),
	}
	f := xrep.ReadFields(ctx.Args, 2)
	if ms, th := f.Int(), f.Int(); f.Err() == nil {
		if ms > 0 {
			st.interval = time.Duration(ms) * time.Millisecond
		}
		if th > 0 {
			st.threshold = int(th)
		}
	}
	ctx.G.SetState(st)

	// The prober process owns the schedule; the control process owns the
	// port. They share the state under its mutex — two processes of one
	// guardian coordinating through a shared object (§2.1).
	ctx.G.Spawn("prober", func(pr *guardian.Process) { probeLoop(pr, st) })

	reply := func(pr *guardian.Process, m *guardian.Message, cmd string, args ...any) {
		if !m.ReplyTo.IsZero() {
			_ = pr.Send(m.ReplyTo, cmd, args...)
		}
	}
	// No failure arm: a dead subscriber's bounce leaves probing unaffected.
	guardian.NewReceiver(ctx.Ports[0]).
		When("watch", func(pr *guardian.Process, m *guardian.Message) {
			st.mu.Lock()
			if _, dup := st.watched[m.Str(0)]; !dup {
				st.watched[m.Str(0)] = &nodeHealth{}
			}
			st.mu.Unlock()
			reply(pr, m, "watching")
		}).
		When("unwatch", func(pr *guardian.Process, m *guardian.Message) {
			st.mu.Lock()
			delete(st.watched, m.Str(0))
			st.mu.Unlock()
			reply(pr, m, "unwatched")
		}).
		When("status", func(pr *guardian.Process, m *guardian.Message) {
			st.mu.Lock()
			names := make([]string, 0, len(st.watched))
			for n := range st.watched {
				names = append(names, n)
			}
			sort.Strings(names)
			out := make(xrep.Seq, 0, len(names))
			for _, n := range names {
				h := st.watched[n]
				out = append(out, xrep.Seq{xrep.Str(n), xrep.Bool(h.up), xrep.Int(h.missed)})
			}
			st.mu.Unlock()
			reply(pr, m, "status_info", out)
		}).
		When("subscribe", func(pr *guardian.Process, m *guardian.Message) {
			st.mu.Lock()
			st.subscribers = append(st.subscribers, m.Port(0))
			st.mu.Unlock()
			reply(pr, m, "subscribed")
		}).
		Loop(ctx.Proc, nil)
}

// probeLoop pings every watched node each interval and applies the
// threshold rule.
func probeLoop(pr *guardian.Process, st *state) {
	g := pr.Guardian()
	pong, err := g.NewPort(guardian.CreatedReplyType, 64)
	if err != nil {
		return
	}
	for {
		if !pr.Pause(st.interval) {
			return // guardian died
		}
		st.mu.Lock()
		targets := make([]string, 0, len(st.watched))
		for n := range st.watched {
			targets = append(targets, n)
		}
		st.mu.Unlock()
		if len(targets) == 0 {
			continue
		}
		for _, n := range targets {
			_ = pr.SendReplyTo(guardian.PrimordialPort(n), pong.Name(), "ping")
		}
		// Collect pongs until the window closes.
		answered := make(map[string]bool)
		deadline := g.Node().World().Clock().Now().Add(st.interval / 2)
		for len(answered) < len(targets) {
			remain := deadline.Sub(g.Node().World().Clock().Now())
			if remain <= 0 {
				break
			}
			m, status := pr.Receive(remain, pong)
			if status == guardian.RecvKilled {
				return
			}
			if status != guardian.RecvOK {
				break
			}
			if m.Command == "pong" {
				answered[m.SrcNode] = true
			}
		}
		// Apply results and fire transition events.
		type event struct {
			cmd  string
			node string
		}
		var events []event
		st.mu.Lock()
		for _, n := range targets {
			h, ok := st.watched[n]
			if !ok {
				continue // unwatched meanwhile
			}
			if answered[n] {
				h.missed = 0
				if !h.up || !h.known {
					events = append(events, event{"node_up", n})
				}
				h.up, h.known = true, true
				continue
			}
			h.missed++
			if h.missed >= st.threshold && (h.up || !h.known) {
				if h.up || !h.known {
					events = append(events, event{"node_down", n})
				}
				h.up, h.known = false, true
			}
		}
		subs := make([]xrep.PortName, len(st.subscribers))
		copy(subs, st.subscribers)
		st.mu.Unlock()
		for _, ev := range events {
			for _, s := range subs {
				_ = pr.Send(s, ev.cmd, ev.node)
			}
		}
	}
}
