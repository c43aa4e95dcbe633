package guardian

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
	"repro/internal/xrep"
)

// Event is one runtime occurrence: a message milestone or a lifecycle
// transition. Tracing exists because a distributed program's behavior is
// an interleaving of many guardians; when something goes wrong the
// question is always "what happened, in what order, on which node".
type Event struct {
	// Time is the world clock reading.
	Time time.Time
	// Kind is one of the Ev* constants.
	Kind string
	// Node is where the event was observed.
	Node string
	// Detail is a human-readable summary (command, destination, reason).
	Detail string
}

// Event kinds.
const (
	EvSend    = "send"    // a send command accepted a message
	EvDeliver = "deliver" // a message reached its target port
	EvDiscard = "discard" // a message was thrown away (reason in Detail)
	EvFailure = "failure" // the system generated a failure reply
	EvCreate  = "create"  // a guardian was created
	EvRecover = "recover" // a guardian was re-created by recovery
	EvCrash   = "crash"   // a node crashed
	EvRestart = "restart" // a node restarted
)

// Tracer consumes events. Implementations must be safe for concurrent
// use and must not block: events are emitted from hot paths.
type Tracer interface {
	Trace(Event)
}

// SetTracer installs (or with nil removes) the world's tracer.
func (w *World) SetTracer(t Tracer) {
	if t == nil {
		w.tracer.Store((*tracerBox)(nil))
		return
	}
	w.tracer.Store(&tracerBox{t})
}

// tracerBox wraps the interface so an atomic.Pointer can hold it.
type tracerBox struct{ t Tracer }

// trace emits an event if a tracer is installed. The fast path is one
// atomic load.
func (w *World) trace(kind, node, format string, args ...any) {
	box := w.tracer.Load()
	if box == nil || box.t == nil {
		return
	}
	box.t.Trace(Event{
		Time:   w.clock.Now(),
		Kind:   kind,
		Node:   node,
		Detail: fmt.Sprintf(format, args...),
	})
}

// traceSend and traceDeliver are the two per-message events. Each checks
// for a tracer before building its arguments: passing them to trace boxes
// every one, which with no tracer installed is garbage on every message.
func (w *World) traceSend(node, command string, gid uint64, to xrep.PortName) {
	if w.tracer.Load() == nil {
		return
	}
	w.trace(EvSend, node, "%s(..) guardian %d -> %s/%d/%d", command, gid, to.Node, to.Guardian, to.Port)
}

func (w *World) traceDeliver(node string, f *wire.Frame) {
	if w.tracer.Load() == nil {
		return
	}
	w.trace(EvDeliver, node, "%s(..) from %s/%d to guardian %d port %d",
		f.Command, f.SrcNode, f.SrcGuardian, f.Dest.Guardian, f.Dest.Port)
}

// RingTracer keeps the most recent events in a fixed-size ring.
type RingTracer struct {
	mu     sync.Mutex
	events []Event
	next   int
	filled bool
	count  atomic.Int64
}

// NewRingTracer creates a ring holding up to n events.
func NewRingTracer(n int) *RingTracer {
	if n < 1 {
		n = 1
	}
	return &RingTracer{events: make([]Event, n)}
}

// Trace implements Tracer.
func (r *RingTracer) Trace(e Event) {
	r.count.Add(1)
	r.mu.Lock()
	r.events[r.next] = e
	r.next++
	if r.next == len(r.events) {
		r.next = 0
		r.filled = true
	}
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *RingTracer) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.filled {
		out := make([]Event, r.next)
		copy(out, r.events[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Total reports how many events were ever traced (including evicted).
func (r *RingTracer) Total() int64 { return r.count.Load() }

// String renders one event as a log line.
func (e Event) String() string {
	return fmt.Sprintf("%s %-8s %-10s %s",
		e.Time.Format("15:04:05.000000"), e.Kind, e.Node, e.Detail)
}
