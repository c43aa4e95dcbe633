package vtime

import "time"

// DriveOptions tunes Drive's pacing.
type DriveOptions struct {
	// Settle is the real-time window granted after each virtual advance for
	// the woken goroutines to run and install their next timers. Too small
	// and the driver races ahead of the simulation (a reply's delivery
	// timer not yet created when the caller's timeout fires); too large and
	// the simulation just runs slower. Zero means 200µs.
	Settle time.Duration
}

func (o DriveOptions) withDefaults() DriveOptions {
	if o.Settle <= 0 {
		o.Settle = 200 * time.Microsecond
	}
	return o
}

// Drive runs the simulated clock hands-free: until done() reports true, it
// advances virtual time to the earliest pending deadline (firing the
// timers there), then yields a settle window of real time so the woken
// goroutines can run and install their next timers before the clock moves
// again. When no timers are pending — goroutines are en route to their
// blocking points — it pauses one settle window and re-checks.
//
// This is the virtual-time event scheduler the deterministic simulation
// harness (internal/dst) runs on: every component blocks only on this
// clock (network delays, receive timeouts, retry backoff, fault-schedule
// offsets), so a whole multi-node run — seconds of simulated traffic,
// crashes and partitions included — completes in milliseconds of real
// time, in deadline order.
//
// Drive controls when virtual time moves, not how the Go scheduler
// interleaves the goroutines that wake; see DESIGN.md §7 for what that
// does and does not guarantee.
func (s *Sim) Drive(done func() bool, opts DriveOptions) {
	opts = opts.withDefaults()
	for !done() {
		if d, ok := s.NextDeadline(); ok {
			s.AdvanceTo(d)
			time.Sleep(opts.Settle)
			continue
		}
		time.Sleep(opts.Settle)
	}
}
