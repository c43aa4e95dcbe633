package vtime

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestDriveAdvancesThroughSleepChain: a goroutine performing a chain of
// dependent sleeps (each installed only after the previous fires) must be
// carried to completion by Drive, with virtual time equal to the sum of
// the sleeps and real time far below it.
func TestDriveAdvancesThroughSleepChain(t *testing.T) {
	start := time.Unix(0, 0)
	s := NewSim(start)
	var finished atomic.Bool
	const steps = 50
	const step = time.Second
	go func() {
		for i := 0; i < steps; i++ {
			s.Sleep(step)
		}
		finished.Store(true)
	}()

	begin := time.Now()
	s.Drive(finished.Load)
	real := time.Since(begin)

	if got := s.Since(start); got != steps*step {
		t.Fatalf("virtual time advanced %v, want %v", got, steps*step)
	}
	if real > 5*time.Second {
		t.Fatalf("Drive took %v real for %v virtual; the clock is not simulated", real, steps*step)
	}
}

// TestDriveInterleavesConcurrentSleepers: concurrent goroutines with
// distinct deadlines must each fire at exactly its own virtual deadline —
// the clock may not skip past a pending earlier timer.
func TestDriveInterleavesConcurrentSleepers(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	wakeups := make(chan int64, 2)
	var woken atomic.Int32
	sleeper := func(d time.Duration) {
		ft := <-s.After(d) // the delivered value is the fire time
		wakeups <- ft.Unix()
		woken.Add(1)
	}
	go sleeper(2 * time.Second)
	go sleeper(1 * time.Second)
	s.Drive(func() bool { return woken.Load() == 2 })
	got := map[int64]bool{<-wakeups: true, <-wakeups: true}
	if !got[1] || !got[2] {
		t.Fatalf("fire times = %v, want {1s, 2s}", got)
	}
}

// TestDriveIdlesUntilLateTimer: Drive must not stop making progress when a
// goroutine takes real time to reach its blocking point.
func TestDriveIdlesUntilLateTimer(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var fired atomic.Bool
	go func() {
		time.Sleep(2 * time.Millisecond) // real delay before any timer exists
		s.Sleep(time.Hour)
		fired.Store(true)
	}()
	s.Drive(fired.Load)
	if s.Since(time.Unix(0, 0)) < time.Hour {
		t.Fatalf("virtual time %v, want >= 1h", s.Since(time.Unix(0, 0)))
	}
}
