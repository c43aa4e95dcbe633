// Package a holds the lockorder goldens that need no repro imports: the
// seeded PR 7 shape (a forced durable write under the runtime mutex),
// channel operations in critical sections (in the function itself, in a
// literal it invokes, not in a goroutine it starts), re-entrant acquisition
// through a call chain, and a two-class ordering cycle.
package a

import "sync"

// Log mimics durable.Log's shape: Append alongside Sync/AppendSync makes
// it log-like to the summaries.
type Log struct{ n int }

func (l *Log) Append(b []byte) error     { l.n++; return nil }
func (l *Log) Sync() error               { return nil }
func (l *Log) AppendSync(b []byte) error { l.n++; return nil }

// Runtime mirrors the replica runtime: a mutex guarding state plus a term
// log.
type Runtime struct {
	mu    sync.Mutex
	dirty bool
	log   *Log
}

// Persist is the seeded PR 7 deadlock shape: the public method takes the
// lock and the locked helper issues the forced write. The diagnostic lands
// on the write itself.
func (r *Runtime) Persist() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.persistLocked()
}

func (r *Runtime) persistLocked() error {
	return r.log.AppendSync(nil) // want `forced durable write Log.AppendSync while a.Runtime.mu is held`
}

// Flush blocks directly under the lock.
func (r *Runtime) Flush() {
	r.mu.Lock()
	r.log.Sync() // want `forced durable write Log.Sync while a.Runtime.mu is held`
	r.mu.Unlock()
}

// FlushUnlocked releases before forcing: no diagnostic.
func (r *Runtime) FlushUnlocked() {
	r.mu.Lock()
	r.dirty = false
	r.mu.Unlock()
	_ = r.log.Sync()
}

// Guarded uses the early-out idiom: the unlock before return is an exit
// path, so the fall-through Sync still runs under the lock.
func (r *Runtime) Guarded(ok bool) {
	r.mu.Lock()
	if !ok {
		r.mu.Unlock()
		return
	}
	r.log.Sync() // want `forced durable write Log.Sync while a.Runtime.mu is held`
	r.mu.Unlock()
}

// Notify parks on an unbuffered send inside the critical section.
func (r *Runtime) Notify(ch chan int) {
	r.mu.Lock()
	ch <- 1 // want `channel send with no default while a.Runtime.mu is held`
	r.mu.Unlock()
}

// NotifyInline parks inside a directly invoked literal, which runs under
// the caller's lock: the finding comes through the literal call.
func (r *Runtime) NotifyInline(ch chan int) {
	r.mu.Lock()
	func() {
		ch <- 1 // want `channel send with no default while a.Runtime.mu is held \(path \(Runtime\).NotifyInline → \(Runtime\).NotifyInline literal\)`
	}()
	r.mu.Unlock()
}

// NotifyAsync sends from a goroutine, which runs outside the lock: no
// diagnostic.
func (r *Runtime) NotifyAsync(ch chan int) {
	r.mu.Lock()
	go func() {
		ch <- 1
	}()
	r.mu.Unlock()
}

// TryNotify is the non-blocking variant: no diagnostic.
func (r *Runtime) TryNotify(ch chan int) {
	r.mu.Lock()
	select {
	case ch <- 1:
	default:
	}
	r.mu.Unlock()
}

// Outer re-acquires through a helper: sync.Mutex is not re-entrant.
func (r *Runtime) Outer() {
	r.mu.Lock()
	r.inner()
	r.mu.Unlock()
}

func (r *Runtime) inner() {
	r.mu.Lock() // want `a.Runtime.mu acquired again while already held`
	r.dirty = true
	r.mu.Unlock()
}

// Accepted shows a justified suppression: the write under the lock is
// deliberate and documented, so the finding is held down and neither it
// nor the directive trips the goldens.
func (r *Runtime) Accepted() {
	r.mu.Lock()
	//lint:allow lockorder startup-only path; nothing else can contend for mu before serving begins
	r.log.AppendSync(nil)
	r.mu.Unlock()
}

// ErrorArm pairs lock and unlock in the SAME statement list before the
// return: a straight-line pair, not an early-out, so the code after the
// branch (reached only when the branch is not taken) runs unlocked. No
// diagnostic — this is the Node.start error-arm shape.
func (r *Runtime) ErrorArm(fail bool, ch chan int) {
	if fail {
		r.mu.Lock()
		r.dirty = false
		r.mu.Unlock()
		return
	}
	ch <- 1
	_ = r.log.Sync()
}

// FlushHandoff passes lock ownership into a helper that is entered locked
// and returns unlocked (wal's flushAsLeader shape): the helper's forced
// write runs unlocked and the caller's re-lock is not re-entrant. No
// diagnostic.
func (r *Runtime) FlushHandoff() {
	r.mu.Lock()
	r.flushLeader()
	r.mu.Lock()
	r.dirty = false
	r.mu.Unlock()
}

// flushLeader is entered with mu held and leaves with it released.
func (r *Runtime) flushLeader() {
	r.mu.Unlock()
	_ = r.log.Sync()
}

// Meter and Gauge wrap a common interface, each dispatching through an
// inner field. CHA winds Meter's closure through Gauge back into
// Meter.Len, but under per-type lock classes that is a different instance
// wrapped below — the self-wrapping shape. No diagnostic.
type Counter interface{ Len() int }

// Meter guards its reads.
type Meter struct {
	mu    sync.Mutex
	inner Counter
}

// Len reads through the wrapped counter.
func (m *Meter) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inner.Len()
}

// Gauge is an unguarded pass-through wrapper.
type Gauge struct{ inner Counter }

// Len reads through the wrapped counter.
func (g *Gauge) Len() int { return g.inner.Len() }

// Left and Right take the two classes in opposite orders: a cycle.
type Left struct {
	mu sync.Mutex
	r  *Right
}

type Right struct {
	mu sync.Mutex
	l  *Left
}

func (a *Left) Both() {
	a.mu.Lock()
	a.r.mu.Lock() // want `lock-order cycle: a.Left.mu → a.Right.mu → a.Left.mu`
	a.r.mu.Unlock()
	a.mu.Unlock()
}

func (b *Right) Both() {
	b.mu.Lock()
	b.l.mu.Lock()
	b.l.mu.Unlock()
	b.mu.Unlock()
}
