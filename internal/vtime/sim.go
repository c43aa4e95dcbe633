package vtime

import (
	"container/heap"
	"sync"
	"time"
)

// Sim is a deterministic simulated clock. Time stands still until a test
// calls Advance or AdvanceTo, at which point every timer whose deadline has
// been reached fires, in deadline order (ties broken by the order the timers
// were created or Reset).
//
// Goroutines that Sleep on a Sim clock block until an Advance moves time
// past their wakeup point.
type Sim struct {
	mu      sync.Mutex
	now     time.Time
	seq     uint64 // tie-break for identical deadlines
	pending timerHeap
}

// NewSim returns a simulated clock whose current time is start.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start}
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Since implements Clock.
func (s *Sim) Since(t time.Time) time.Duration {
	return s.Now().Sub(t)
}

// After implements Clock.
func (s *Sim) After(d time.Duration) <-chan time.Time {
	return s.NewTimer(d).C()
}

// NewTimer implements Clock.
func (s *Sim) NewTimer(d time.Duration) Timer {
	t := &simTimer{clock: s, ch: make(chan time.Time, 1), index: -1}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arm(t, d)
	return t
}

// arm schedules t, which is not pending and whose channel is empty, to fire
// d from now — at once when d <= 0. The caller holds s.mu.
func (s *Sim) arm(t *simTimer, d time.Duration) {
	if d <= 0 {
		s.fire(t)
		return
	}
	t.deadline = s.now.Add(d)
	t.seq = s.seq
	s.seq++
	heap.Push(&s.pending, t)
}

// fire delivers t's expiry at the current time. The caller holds s.mu and
// has taken t out of pending, or never put it there.
func (s *Sim) fire(t *simTimer) {
	//lint:allow lockorder the timer channel is buffered(1) and empty while the timer is pending: Reset drains an unread expiry before it rearms, so this send cannot block
	t.ch <- s.now
}

// Sleep implements Clock. It blocks until the simulated time has advanced
// by at least d.
func (s *Sim) Sleep(d time.Duration) {
	<-s.After(d)
}

// Advance moves simulated time forward by d, firing every timer whose
// deadline falls within the window, in deadline order.
func (s *Sim) Advance(d time.Duration) {
	s.mu.Lock()
	target := s.now.Add(d)
	s.mu.Unlock()
	s.AdvanceTo(target)
}

// AdvanceTo moves simulated time forward to t (never backward), firing
// timers as their deadlines are crossed.
func (s *Sim) AdvanceTo(t time.Time) {
	for {
		s.mu.Lock()
		if len(s.pending) == 0 || s.pending[0].deadline.After(t) {
			if t.After(s.now) {
				s.now = t
			}
			s.mu.Unlock()
			return
		}
		tm := heap.Pop(&s.pending).(*simTimer)
		if tm.deadline.After(s.now) {
			s.now = tm.deadline
		}
		s.fire(tm)
		s.mu.Unlock()
	}
}

// PendingTimers reports how many unexpired, unstopped timers exist. Useful
// for tests that need to know a goroutine has reached its blocking point.
func (s *Sim) PendingTimers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// NextDeadline returns the deadline of the earliest pending timer and true,
// or the zero time and false when no timers are pending.
func (s *Sim) NextDeadline() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return time.Time{}, false
	}
	return s.pending[0].deadline, true
}

// RunUntilIdle advances the clock through every pending timer, firing each
// in order, and returns the final simulated time. It is the usual way to
// drain a deterministic schedule in tests.
func (s *Sim) RunUntilIdle() time.Time {
	for {
		d, ok := s.NextDeadline()
		if !ok {
			return s.Now()
		}
		s.AdvanceTo(d)
	}
}

// simTimer is pending exactly while it sits in its clock's heap; a stopped
// or fired timer leaves it, so the heap holds live timers only.
type simTimer struct {
	clock    *Sim
	deadline time.Time
	seq      uint64
	ch       chan time.Time
	index    int // position in clock.pending; -1 when not pending
}

func (t *simTimer) C() <-chan time.Time { return t.ch }

func (t *simTimer) Stop() bool {
	s := t.clock
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.index < 0 {
		return false
	}
	heap.Remove(&s.pending, t.index)
	return true
}

func (t *simTimer) Reset(d time.Duration) bool {
	s := t.clock
	s.mu.Lock()
	defer s.mu.Unlock()
	active := t.index >= 0
	if active {
		heap.Remove(&s.pending, t.index)
	} else {
		select { // a fired expiry nobody received
		case <-t.ch:
		default:
		}
	}
	s.arm(t, d)
	return active
}

// timerHeap orders timers by (deadline, seq).
type timerHeap []*simTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].deadline.Equal(h[j].deadline) {
		return h[i].seq < h[j].seq
	}
	return h[i].deadline.Before(h[j].deadline)
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*simTimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	t.index = -1
	return t
}
