package vtime

import (
	"testing"
	"time"
)

// TestTimerReset holds both clocks to one Reset contract: whatever state
// the timer is in, Reset discards an expiry nobody received, rearms it, and
// it fires exactly once more — at once for a zero duration.
func TestTimerReset(t *testing.T) {
	const d = 20 * time.Millisecond
	type clockCase struct {
		clock Clock
		pass  func() // lets d go by
		sim   *Sim   // nil for the real clock
	}
	clocks := map[string]func() clockCase{
		"real": func() clockCase { return clockCase{clock: NewReal(), pass: func() { time.Sleep(2 * d) }} },
		"sim": func() clockCase {
			s := NewSim(time.Unix(0, 0))
			return clockCase{clock: s, pass: func() { s.Advance(d) }, sim: s}
		},
	}
	cases := []struct {
		name       string
		prepare    func(c clockCase) Timer
		wasPending bool
		reset      time.Duration
	}{
		{"stopped", func(c clockCase) Timer {
			tm := c.clock.NewTimer(time.Hour)
			tm.Stop()
			return tm
		}, false, d},
		{"fired-unread", func(c clockCase) Timer {
			tm := c.clock.NewTimer(d)
			c.pass()
			waitBuffered(t, tm)
			return tm
		}, false, d},
		{"fired-drained", func(c clockCase) Timer {
			tm := c.clock.NewTimer(d)
			c.pass()
			<-tm.C()
			return tm
		}, false, d},
		{"pending", func(c clockCase) Timer { return c.clock.NewTimer(time.Hour) }, true, d},
		{"zero duration", func(c clockCase) Timer { return c.clock.NewTimer(time.Hour) }, true, 0},
	}
	for clockName, mk := range clocks {
		for _, tc := range cases {
			t.Run(clockName+"/"+tc.name, func(t *testing.T) {
				c := mk()
				tm := tc.prepare(c)
				if c.sim != nil && tc.name == "stopped" && c.sim.PendingTimers() != 0 {
					t.Fatalf("a stopped timer is still pending (%d)", c.sim.PendingTimers())
				}
				if got := tm.Reset(tc.reset); got != tc.wasPending {
					t.Fatalf("Reset reported pending=%v, want %v", got, tc.wasPending)
				}
				if tc.reset == 0 {
					fired := false
					select {
					case <-tm.C():
						fired = true
					default:
					}
					if !fired && c.sim == nil { // the runtime fires it a moment later
						select {
						case <-tm.C():
							fired = true
						case <-time.After(time.Second):
						}
					}
					if !fired {
						t.Fatal("Reset(0) did not fire at once")
					}
				} else {
					select {
					case <-tm.C():
						t.Fatal("an expiry from before the Reset survived it")
					default:
					}
					c.pass()
					select {
					case <-tm.C():
					case <-time.After(time.Second):
						t.Fatal("the rearmed timer never fired")
					}
				}
				select {
				case <-tm.C():
					t.Fatal("the rearmed timer fired twice")
				case <-time.After(2 * d):
				}
				if c.sim != nil && c.sim.PendingTimers() != 0 {
					t.Fatalf("%d timers pending after the expiry", c.sim.PendingTimers())
				}
			})
		}
	}
}

// waitBuffered waits until tm's expiry sits unread in its channel.
func waitBuffered(t *testing.T, tm Timer) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); len(tm.C()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the timer never fired")
		}
	}
}
