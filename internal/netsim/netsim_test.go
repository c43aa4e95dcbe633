package netsim

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/vtime"
)

// collector gathers delivered payloads for assertions.
type collector struct {
	mu   sync.Mutex
	got  [][]byte
	from []Addr
}

func (c *collector) handler(from Addr, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := make([]byte, len(payload))
	copy(b, payload)
	c.got = append(c.got, b)
	c.from = append(c.from, from)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func newPair(t *testing.T, cfg Config) (*Network, *collector, *collector) {
	t.Helper()
	n := New(vtime.NewReal(), cfg)
	ca, cb := &collector{}, &collector{}
	n.Attach("a", ca.handler)
	n.Attach("b", cb.handler)
	return n, ca, cb
}

func TestReliableDelivery(t *testing.T) {
	n, _, cb := newPair(t, Config{})
	if err := n.Send("a", "b", []byte("hello")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	n.Quiesce()
	if cb.count() != 1 {
		t.Fatalf("delivered %d, want 1", cb.count())
	}
	if !bytes.Equal(cb.got[0], []byte("hello")) {
		t.Fatalf("payload = %q, want %q", cb.got[0], "hello")
	}
	if cb.from[0] != "a" {
		t.Fatalf("from = %q, want a", cb.from[0])
	}
}

func TestSenderMustBeAttached(t *testing.T) {
	n := New(vtime.NewReal(), Config{})
	n.Attach("b", func(Addr, []byte) {})
	if err := n.Send("ghost", "b", []byte("x")); err != transport.ErrNotAttached {
		t.Fatalf("Send from unattached = %v, want ErrNotAttached", err)
	}
}

func TestEmptyPayloadRejected(t *testing.T) {
	n, _, _ := newPair(t, Config{})
	if err := n.Send("a", "b", nil); err != transport.ErrEmptyPayload {
		t.Fatalf("Send(nil) = %v, want ErrEmptyPayload", err)
	}
}

func TestMTUEnforced(t *testing.T) {
	n, _, cb := newPair(t, Config{MTU: 4})
	if err := n.Send("a", "b", []byte("12345")); !errors.Is(err, transport.ErrTooLarge) {
		t.Fatalf("oversized send = %v, want ErrTooLarge", err)
	}
	if err := n.Send("a", "b", []byte("1234")); err != nil {
		t.Fatalf("MTU-sized send failed: %v", err)
	}
	n.Quiesce()
	if cb.count() != 1 {
		t.Fatalf("delivered %d, want 1", cb.count())
	}
}

func TestDetachedDestinationDrops(t *testing.T) {
	n, _, _ := newPair(t, Config{})
	n.Detach("b")
	if err := n.Send("a", "b", []byte("x")); err != nil {
		t.Fatalf("Send to detached should accept (best-effort): %v", err)
	}
	n.Quiesce()
	st := n.Counts()
	if st.DroppedDst != 1 {
		t.Fatalf("DroppedDst = %d, want 1", st.DroppedDst)
	}
	if st.Delivered != 0 {
		t.Fatalf("Delivered = %d, want 0", st.Delivered)
	}
}

func TestLossRateApproximate(t *testing.T) {
	n, _, cb := newPair(t, Config{Seed: 42, LossRate: 0.5})
	const total = 2000
	for i := 0; i < total; i++ {
		if err := n.Send("a", "b", []byte{byte(i)}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	n.Quiesce()
	got := cb.count()
	if got < total*35/100 || got > total*65/100 {
		t.Fatalf("delivered %d of %d at 50%% loss; outside [35%%,65%%]", got, total)
	}
	st := n.Counts()
	if st.Lost+int64(got) != total {
		t.Fatalf("Lost(%d)+delivered(%d) != sent(%d)", st.Lost, got, total)
	}
}

func TestDuplication(t *testing.T) {
	n, _, cb := newPair(t, Config{Seed: 7, DupRate: 1.0})
	if err := n.Send("a", "b", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	n.Quiesce()
	if cb.count() != 2 {
		t.Fatalf("delivered %d with DupRate=1, want 2", cb.count())
	}
	if n.Counts().Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", n.Counts().Duplicated)
	}
}

func TestCorruptionFlipsExactlyOneBit(t *testing.T) {
	n, _, cb := newPair(t, Config{Seed: 3, CorruptRate: 1.0})
	orig := []byte{0x00, 0xFF, 0x55}
	sent := make([]byte, len(orig))
	copy(sent, orig)
	if err := n.Send("a", "b", sent); err != nil {
		t.Fatalf("Send: %v", err)
	}
	n.Quiesce()
	if cb.count() != 1 {
		t.Fatalf("delivered %d, want 1", cb.count())
	}
	diff := 0
	for i := range orig {
		x := orig[i] ^ cb.got[0][i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", diff)
	}
	if !bytes.Equal(sent, orig) {
		t.Fatal("sender's buffer was mutated by corruption")
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	n, _, cb := newPair(t, Config{BaseLatency: 30 * time.Millisecond})
	start := time.Now()
	if err := n.Send("a", "b", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if cb.count() != 0 {
		t.Fatal("delivered before latency elapsed")
	}
	n.Quiesce()
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("delivered after %v, want >= ~30ms", el)
	}
	if cb.count() != 1 {
		t.Fatalf("delivered %d, want 1", cb.count())
	}
}

func TestReorderingObservable(t *testing.T) {
	// With a deliberate reorder hold on some packets, later sends can
	// overtake earlier ones: the paper guarantees no arrival order.
	n := New(vtime.NewReal(), Config{
		Seed:         1,
		BaseLatency:  2 * time.Millisecond,
		ReorderRate:  0.5,
		ReorderDelay: 20 * time.Millisecond,
	})
	var order []byte
	var mu sync.Mutex
	n.Attach("a", func(Addr, []byte) {})
	n.Attach("b", func(_ Addr, p []byte) {
		mu.Lock()
		order = append(order, p[0])
		mu.Unlock()
	})
	for i := byte(0); i < 20; i++ {
		if err := n.Send("a", "b", []byte{i}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	n.Quiesce()
	if len(order) != 20 {
		t.Fatalf("delivered %d, want 20", len(order))
	}
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("all packets arrived in send order despite reorder injection")
	}
}

func TestPartitionBlocksCrossTraffic(t *testing.T) {
	n, ca, cb := newPair(t, Config{})
	n.Partition([]Addr{"a"}, []Addr{"b"})
	if err := n.Send("a", "b", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	n.Quiesce()
	if cb.count() != 0 {
		t.Fatal("packet crossed an active partition")
	}
	if n.Counts().Partition != 1 {
		t.Fatalf("Partition drops = %d, want 1", n.Counts().Partition)
	}
	// Intra-group traffic still flows.
	n.Attach("a2", func(Addr, []byte) {})
	n.Partition([]Addr{"a", "a2"}, []Addr{"b"})
	if err := n.Send("a", "a2", []byte("y")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	n.Heal()
	if err := n.Send("a", "b", []byte("z")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	n.Quiesce()
	if cb.count() != 1 {
		t.Fatalf("post-heal delivery count = %d, want 1", cb.count())
	}
	_ = ca
}

func TestDisconnectAndReconnect(t *testing.T) {
	n, _, cb := newPair(t, Config{})
	n.Disconnect("a", "b")
	if err := n.Send("a", "b", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	n.Quiesce()
	if cb.count() != 0 {
		t.Fatal("packet crossed a severed link")
	}
	n.Reconnect("a", "b")
	if err := n.Send("a", "b", []byte("y")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	n.Quiesce()
	if cb.count() != 1 {
		t.Fatalf("post-reconnect deliveries = %d, want 1", cb.count())
	}
}

func TestPerLinkOverride(t *testing.T) {
	n, _, cb := newPair(t, Config{})
	n.Attach("c", func(Addr, []byte) {})
	n.SetLink("a", "b", &Config{LossRate: 1.0})
	const total = 50
	for i := 0; i < total; i++ {
		if err := n.Send("a", "b", []byte{1}); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if err := n.Send("a", "c", []byte{2}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	n.Quiesce()
	if cb.count() != 0 {
		t.Fatalf("lossy link delivered %d, want 0", cb.count())
	}
	st := n.Counts()
	if st.Lost != total {
		t.Fatalf("Lost = %d, want %d", st.Lost, total)
	}
	// Removing the override restores defaults.
	n.SetLink("a", "b", nil)
	if err := n.Send("a", "b", []byte{3}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	n.Quiesce()
	if cb.count() != 1 {
		t.Fatalf("post-restore deliveries = %d, want 1", cb.count())
	}
}

func TestDeterministicFateSequence(t *testing.T) {
	// Same seed and same single-threaded send order must lose the same
	// packets.
	run := func() []int {
		n := New(vtime.NewReal(), Config{Seed: 99, LossRate: 0.3})
		var delivered []int32
		var mu sync.Mutex
		n.Attach("a", func(Addr, []byte) {})
		n.Attach("b", func(_ Addr, p []byte) {
			mu.Lock()
			delivered = append(delivered, int32(p[0]))
			mu.Unlock()
		})
		for i := 0; i < 100; i++ {
			if err := n.Send("a", "b", []byte{byte(i)}); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		n.Quiesce()
		mu.Lock()
		defer mu.Unlock()
		set := make([]int, 0, len(delivered))
		seen := make(map[int32]bool)
		for _, v := range delivered {
			seen[v] = true
		}
		for i := int32(0); i < 100; i++ {
			if seen[i] {
				set = append(set, int(i))
			}
		}
		return set
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("two seeded runs delivered %d vs %d packets", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	n, _, _ := newPair(t, Config{})
	for i := 0; i < 10; i++ {
		if err := n.Send("a", "b", []byte("abc")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	n.Quiesce()
	st := n.Counts()
	if st.Sent != 10 || st.Delivered != 10 {
		t.Fatalf("Sent=%d Delivered=%d, want 10/10", st.Sent, st.Delivered)
	}
	if st.BytesSent != 30 {
		t.Fatalf("BytesSent = %d, want 30", st.BytesSent)
	}
}

// TestStatsFoldsCounts pins the transport view of the accounting over a
// seeded exchange that loses, duplicates, partitions and sends to a dead
// address: Stats counts every drop once in Dropped, and a packet sent is
// delivered once, twice or dropped.
func TestStatsFoldsCounts(t *testing.T) {
	n := New(vtime.NewReal(), Config{Seed: 40, LossRate: 0.2, DupRate: 0.2})
	defer n.Close()
	for _, a := range []Addr{"a", "b", "c"} {
		n.Attach(a, func(Addr, []byte) {})
	}
	n.Partition([]Addr{"a", "b"}, []Addr{"c"})
	for i := 0; i < 100; i++ {
		for _, to := range []Addr{"b", "c", "dead"} {
			if err := n.Send("a", to, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	n.Quiesce()
	c := n.Counts()
	if c.Lost == 0 || c.Duplicated == 0 || c.Partition == 0 || c.DroppedDst == 0 {
		t.Fatalf("the exchange misses a kind of drop or the duplicate: %+v", c)
	}
	want := transport.Stats{Sent: c.Sent, Delivered: c.Delivered,
		Dropped: c.Lost + c.DroppedDst + c.Partition, Duplicated: c.Duplicated, BytesSent: c.BytesSent}
	got := n.Stats()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Stats() = %+v, want %+v from %+v", got, want, c)
	}
	if got.Sent != 300 || got.Delivered != got.Sent-got.Dropped+got.Duplicated {
		t.Fatalf("Stats() = %+v: 300 sent must each be delivered, duplicated or dropped", got)
	}
}

func TestBandwidthAddsSerializationDelay(t *testing.T) {
	// 1 KiB at 10 KiB/s ≈ 100ms.
	n, _, cb := newPair(t, Config{BandwidthBps: 10 * 1024})
	payload := make([]byte, 1024)
	start := time.Now()
	if err := n.Send("a", "b", payload[:1]); err != nil { // tiny: near-instant
		t.Fatalf("Send: %v", err)
	}
	n.Quiesce()
	small := time.Since(start)
	start = time.Now()
	if err := n.Send("a", "b", payload); err != nil {
		t.Fatalf("Send: %v", err)
	}
	n.Quiesce()
	large := time.Since(start)
	if large < 80*time.Millisecond {
		t.Fatalf("1KiB at 10KiB/s delivered in %v, want >= ~100ms", large)
	}
	if large < small {
		t.Fatalf("larger packet (%v) beat smaller (%v)", large, small)
	}
	if cb.count() != 2 {
		t.Fatalf("delivered %d, want 2", cb.count())
	}
}

func TestConcurrentSendsSafe(t *testing.T) {
	n := New(vtime.NewReal(), Config{Seed: 5, LossRate: 0.1, Jitter: time.Millisecond})
	var delivered atomic.Int64
	n.Attach("b", func(Addr, []byte) { delivered.Add(1) })
	const senders, per = 8, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		addr := Addr(string(rune('A' + s)))
		n.Attach(addr, func(Addr, []byte) {})
		wg.Add(1)
		go func(a Addr) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := n.Send(a, "b", []byte{byte(i)}); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(addr)
	}
	wg.Wait()
	n.Quiesce()
	st := n.Counts()
	if st.Sent != senders*per {
		t.Fatalf("Sent = %d, want %d", st.Sent, senders*per)
	}
	if delivered.Load()+st.Lost != senders*per {
		t.Fatalf("delivered(%d)+lost(%d) != sent(%d)", delivered.Load(), st.Lost, st.Sent)
	}
}

func TestAttachedAndHandlerReplacement(t *testing.T) {
	n := New(vtime.NewReal(), Config{})
	if n.Attached("a") {
		t.Fatal("unattached address reported attached")
	}
	var first, second atomic.Int64
	n.Attach("a", func(Addr, []byte) {})
	n.Attach("b", func(Addr, []byte) { first.Add(1) })
	if !n.Attached("b") {
		t.Fatal("Attached(b) = false")
	}
	// Re-attaching replaces the handler.
	n.Attach("b", func(Addr, []byte) { second.Add(1) })
	if err := n.Send("a", "b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	n.Quiesce()
	if first.Load() != 0 || second.Load() != 1 {
		t.Fatalf("first=%d second=%d, want 0/1", first.Load(), second.Load())
	}
}
