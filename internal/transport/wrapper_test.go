package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingTransport records sends without moving any bytes.
type countingTransport struct {
	mu    sync.Mutex
	sends [][]byte
}

func (c *countingTransport) Attach(a Addr, h Handler) error { return nil }
func (c *countingTransport) Detach(a Addr)                  {}
func (c *countingTransport) Attached(a Addr) bool           { return true }
func (c *countingTransport) Learn(name, via Addr)           {}
func (c *countingTransport) Stats() Stats                   { return Stats{} }
func (c *countingTransport) Quiesce()                       {}
func (c *countingTransport) Close() error                   { return nil }
func (c *countingTransport) Send(from, to Addr, payload []byte) error {
	buf := make([]byte, len(payload))
	copy(buf, payload)
	c.mu.Lock()
	c.sends = append(c.sends, buf)
	c.mu.Unlock()
	return nil
}

func (c *countingTransport) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sends)
}

func TestWrapperLossAndDupRates(t *testing.T) {
	inner := &countingTransport{}
	w := Wrap(inner, WrapperConfig{Seed: 42, LossRate: 0.2, DupRate: 0.2})
	const n = 5000
	for i := 0; i < n; i++ {
		if err := w.Send("a", "b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	w.Quiesce()
	st := w.InjectedStats()
	if st.Sent != n {
		t.Fatalf("sent %d", st.Sent)
	}
	if lo, hi := int64(n)*15/100, int64(n)*25/100; st.Lost < lo || st.Lost > hi {
		t.Fatalf("lost %d of %d, want ~20%%", st.Lost, n)
	}
	// Duplication applies only to surviving datagrams.
	surv := st.Sent - st.Lost
	if lo, hi := surv*15/100, surv*25/100; st.Duplicated < lo || st.Duplicated > hi {
		t.Fatalf("duplicated %d of %d survivors, want ~20%%", st.Duplicated, surv)
	}
	if got, want := int64(inner.count()), surv+st.Duplicated; got != want {
		t.Fatalf("inner saw %d sends, want %d", got, want)
	}
}

func TestWrapperDeterministicFates(t *testing.T) {
	run := func() (WrapperStats, int) {
		inner := &countingTransport{}
		w := Wrap(inner, WrapperConfig{Seed: 7, LossRate: 0.3, DupRate: 0.3})
		for i := 0; i < 500; i++ {
			_ = w.Send("a", "b", []byte{byte(i)})
		}
		w.Quiesce()
		return w.InjectedStats(), inner.count()
	}
	s1, c1 := run()
	s2, c2 := run()
	if s1 != s2 || c1 != c2 {
		t.Fatalf("same seed diverged: %+v/%d vs %+v/%d", s1, c1, s2, c2)
	}
}

func TestWrapperPassthrough(t *testing.T) {
	u, err := NewUDP(UDPConfig{Peers: map[Addr]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	w := Wrap(u, WrapperConfig{Seed: 3})
	defer w.Close()
	var got atomic.Int64
	done := make(chan struct{}, 16)
	if err := w.Attach("a", func(Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := w.Attach("b", func(from Addr, p []byte) { got.Add(1); done <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	if !w.Attached("b") {
		t.Fatal("attached passthrough")
	}
	if err := w.Send("a", "b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("datagram did not pass through wrapper onto UDP")
	}
	w.Detach("b")
	if w.Attached("b") {
		t.Fatal("detach passthrough")
	}
}

// streamFaultTransport is a countingTransport that also exposes the
// stream fault surface, recording every injected fault.
type streamFaultTransport struct {
	countingTransport
	mu2    sync.Mutex
	resets []Addr
	stalls []time.Duration
	live   bool
}

func (s *streamFaultTransport) ResetPeer(a Addr) bool {
	s.mu2.Lock()
	defer s.mu2.Unlock()
	if !s.live {
		return false
	}
	s.resets = append(s.resets, a)
	return true
}

func (s *streamFaultTransport) StallPeer(a Addr, d time.Duration) bool {
	s.mu2.Lock()
	defer s.mu2.Unlock()
	if !s.live {
		return false
	}
	s.stalls = append(s.stalls, d)
	return true
}

func TestWrapperStreamFaults(t *testing.T) {
	inner := &streamFaultTransport{live: true}
	w := Wrap(inner, WrapperConfig{Seed: 11, ResetRate: 0.2, StallRate: 0.2, StallFor: 5 * time.Millisecond})
	const n = 5000
	for i := 0; i < n; i++ {
		if err := w.Send("a", "b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	w.Quiesce()
	st := w.InjectedStats()
	if lo, hi := int64(n)*15/100, int64(n)*25/100; st.Resets < lo || st.Resets > hi {
		t.Fatalf("resets %d of %d, want ~20%%", st.Resets, n)
	}
	if lo, hi := int64(n)*15/100, int64(n)*25/100; st.Stalls < lo || st.Stalls > hi {
		t.Fatalf("stalls %d of %d, want ~20%%", st.Stalls, n)
	}
	inner.mu2.Lock()
	defer inner.mu2.Unlock()
	if int64(len(inner.resets)) != st.Resets || int64(len(inner.stalls)) != st.Stalls {
		t.Fatalf("inner saw %d resets / %d stalls, stats say %d / %d",
			len(inner.resets), len(inner.stalls), st.Resets, st.Stalls)
	}
	for _, d := range inner.stalls {
		if d != 5*time.Millisecond {
			t.Fatalf("stall duration %v, want 5ms", d)
		}
	}
}

func TestWrapperStreamFaultsCountOnlyHits(t *testing.T) {
	inner := &streamFaultTransport{live: false} // no live connections: every fault misses
	w := Wrap(inner, WrapperConfig{Seed: 11, ResetRate: 1, StallRate: 1})
	for i := 0; i < 100; i++ {
		_ = w.Send("a", "b", []byte("x"))
	}
	if st := w.InjectedStats(); st.Resets != 0 || st.Stalls != 0 {
		t.Fatalf("missed faults were counted: %+v", st)
	}
}

func TestWrapperStreamRatesInertOnDatagramInner(t *testing.T) {
	inner := &countingTransport{} // no StreamFaulter surface
	w := Wrap(inner, WrapperConfig{Seed: 11, ResetRate: 1, StallRate: 1})
	for i := 0; i < 50; i++ {
		if err := w.Send("a", "b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.InjectedStats(); st.Resets != 0 || st.Stalls != 0 {
		t.Fatalf("stream faults on a datagram transport: %+v", st)
	}
	if inner.count() != 50 {
		t.Fatalf("inner saw %d sends, want 50", inner.count())
	}
}

func TestWrapperStreamFatesDeterministic(t *testing.T) {
	run := func() WrapperStats {
		inner := &streamFaultTransport{live: true}
		w := Wrap(inner, WrapperConfig{Seed: 23, ResetRate: 0.3, StallRate: 0.3})
		for i := 0; i < 500; i++ {
			_ = w.Send("a", "b", []byte{byte(i)})
		}
		w.Quiesce()
		return w.InjectedStats()
	}
	if s1, s2 := run(), run(); s1 != s2 {
		t.Fatalf("same seed diverged: %+v vs %+v", s1, s2)
	}
}
