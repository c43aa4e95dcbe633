// Package vtime provides the clock abstraction used by every time-dependent
// component of the runtime (network latency, receive timeouts, crash
// schedules).
//
// Two implementations are provided: Real, a thin wrapper over the wall
// clock, and Sim, a deterministic simulated clock whose time advances only
// when a test calls Advance. All runtime components take a Clock so that
// unit tests of timeout logic are exact and reproducible, while system-level
// benches run against the wall clock.
package vtime

import "time"

// Clock abstracts the passage of time.
//
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// After returns a channel that receives the then-current time once d
	// has elapsed on this clock.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a timer that fires once after d.
	NewTimer(d time.Duration) Timer
	// Sleep blocks the calling goroutine for d.
	Sleep(d time.Duration)
	// Since returns the time elapsed since t.
	Since(t time.Time) time.Duration
}

// Timer is a single-shot timer bound to a Clock. One timer may serve many
// waits: Stop it when a wait ends some other way, Reset it for the next.
type Timer interface {
	// C returns the channel on which the expiry is delivered.
	C() <-chan time.Time
	// Stop prevents the timer from firing. It reports whether the call
	// stopped the timer before it fired; an expiry already delivered stays
	// in C until it is received or the timer is Reset.
	Stop() bool
	// Reset rearms the timer to fire once after d, discarding an expiry
	// delivered but not yet received, and reports whether the timer was
	// still pending. Call it from the goroutine that receives from C.
	Reset(d time.Duration) bool
}

// Real is the wall clock. The zero value is ready to use.
type Real struct{}

// NewReal returns the wall clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

type realTimer struct{ t *time.Timer }

func (rt realTimer) C() <-chan time.Time { return rt.t.C }
func (rt realTimer) Stop() bool          { return rt.t.Stop() }

// Reset implements Timer. go.mod's go 1.22 selects asynctimerchan=1, under
// which a fired timer's value waits in C and time.Timer.Reset leaves it
// there; a Stop that reports false is therefore followed by a drain.
func (rt realTimer) Reset(d time.Duration) bool {
	active := rt.t.Stop()
	if !active {
		select {
		case <-rt.t.C:
		default:
		}
	}
	rt.t.Reset(d)
	return active
}
