package guardian

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vtime"
	"repro/internal/xrep"
)

// Port is a one-directional gateway into a guardian (§3.2). Ports are the
// only entities with global names; messages are queued in bounded buffer
// space, and only processes within the owning guardian can receive from a
// port.
type Port struct {
	name     xrep.PortName
	ptype    *PortType
	guardian *Guardian
	capacity int

	mu      sync.Mutex
	queue   fifo[*Message]
	waiters fifo[*waiter]
	closed  bool

	// accounting
	enqueued  atomic.Int64
	discarded atomic.Int64
}

// fifo is a queue over a slice that keeps its backing array: pop advances
// a head index instead of re-slicing the front away (which would make
// every later append reallocate), and the array is reused from the start
// once the queue drains or, under a standing backlog, when it fills.
type fifo[T comparable] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// pop removes and returns the oldest element; the queue must not be empty.
func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	q.rewindIfEmpty()
	return v
}

// remove deletes the first element equal to v, if there is one.
func (q *fifo[T]) remove(v T) {
	for i := q.head; i < len(q.items); i++ {
		if q.items[i] == v {
			last := len(q.items) - 1
			copy(q.items[i:], q.items[i+1:])
			var zero T
			q.items[last] = zero
			q.items = q.items[:last]
			q.rewindIfEmpty()
			return
		}
	}
}

func (q *fifo[T]) rewindIfEmpty() {
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
}

// waiter is one blocked Receive. The first port to deliver claims it. Its
// timer serves the process's timed waits, Receive's and Pause's alike: made
// by the first, Reset by each later one.
type waiter struct {
	ch      chan *Message
	claimed atomic.Bool
	timer   vtime.Timer
}

// arm starts the waiter's timer for d and returns its channel.
func (w *waiter) arm(c vtime.Clock, d time.Duration) <-chan time.Time {
	if w.timer == nil {
		w.timer = c.NewTimer(d)
	} else {
		w.timer.Reset(d)
	}
	return w.timer.C()
}

// Name returns the port's global name, which may be sent in messages.
func (p *Port) Name() xrep.PortName { return p.name }

// Type returns the port's type descriptor.
func (p *Port) Type() *PortType { return p.ptype }

// Guardian returns the owning guardian.
func (p *Port) Guardian() *Guardian { return p.guardian }

// Len reports the number of queued messages.
func (p *Port) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queue.len()
}

// Capacity returns the port's buffer space.
func (p *Port) Capacity() int { return p.capacity }

// Enqueued reports how many messages have been accepted by this port.
func (p *Port) Enqueued() int64 { return p.enqueued.Load() }

// Discarded reports how many messages were thrown away because the buffer
// was full.
func (p *Port) Discarded() int64 { return p.discarded.Load() }

// deliver hands a message to a blocked receiver or queues it. It reports
// false when the port's buffer space is exhausted (the message is then
// thrown away, and the runtime sends a failure reply if one was asked
// for).
func (p *Port) deliver(m *Message) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	// Hand to the oldest waiter that has not been claimed by another port
	// or by its timeout.
	for p.waiters.len() > 0 {
		w := p.waiters.pop()
		if w.claimed.CompareAndSwap(false, true) {
			p.mu.Unlock()
			w.ch <- m
			p.enqueued.Add(1)
			return true
		}
	}
	if p.queue.len() >= p.capacity {
		p.mu.Unlock()
		p.discarded.Add(1)
		return false
	}
	p.queue.push(m)
	p.mu.Unlock()
	p.enqueued.Add(1)
	return true
}

// claimQueued atomically claims w and pops the oldest queued message.
// It returns nil if the queue is empty or w was already claimed — in the
// latter case a deliver has handed (or is handing) a message to w.ch.
func (p *Port) claimQueued(w *waiter) *Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.queue.len() == 0 {
		return nil
	}
	if !w.claimed.CompareAndSwap(false, true) {
		return nil
	}
	return p.queue.pop()
}

// tryDequeue pops the oldest queued message, if any.
func (p *Port) tryDequeue() *Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.queue.len() == 0 {
		return nil
	}
	return p.queue.pop()
}

// addWaiter registers a blocked receiver.
func (p *Port) addWaiter(w *waiter) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.waiters.push(w)
}

// removeWaiter drops w from the wait list (after a timeout or a win on
// another port). Claimed waiters are also purged lazily by deliver.
func (p *Port) removeWaiter(w *waiter) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.waiters.remove(w)
}

// close marks the port dead (guardian crash or self-destruct); queued
// messages are dropped — they were volatile state.
func (p *Port) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.queue = fifo[*Message]{}
	p.waiters = fifo[*waiter]{}
}
