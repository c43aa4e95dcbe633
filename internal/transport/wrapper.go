package transport

import (
	"sync"
	"time"

	"repro/internal/fault"
)

// WrapperConfig is the fault model a Wrapper injects around an inner
// transport. Its loss and duplication are drawn exactly as the simulator
// draws a packet's (fault.Dice.Packet), so a UDP path can be soak-tested
// at the rates a simulated one runs at.
type WrapperConfig struct {
	// Seed initializes the fault dice; fates are a pure function of the
	// seed and the send order.
	Seed int64
	// LossRate is the probability in [0,1] that a datagram is silently
	// dropped before reaching the inner transport.
	LossRate float64
	// DupRate is the probability that a datagram is submitted twice.
	DupRate float64

	// The stream fault model, honored only when the inner transport is a
	// StreamFaulter. Loss and duplication are datagram faults — a stream
	// would just repair them — so what a stream really suffers is
	// injected instead: the connection carrying a send is reset, or its
	// write pump stalls into a half-open hang.

	// ResetRate is the probability in [0,1] that a send's destination
	// connection is reset just after the send is submitted.
	ResetRate float64
	// StallRate is the probability that the destination connection's
	// writes freeze for StallFor after the send is submitted.
	StallRate float64
	// StallFor is the stall duration; zero means 100ms.
	StallFor time.Duration
}

// WrapperStats counts the faults a Wrapper has injected.
type WrapperStats struct {
	Sent       int64 // datagrams offered to the wrapper
	Lost       int64 // dropped by the injected loss model
	Duplicated int64 // extra submissions from the injected duplication model
	Resets     int64 // connection resets injected by the stream fault model
	Stalls     int64 // write stalls injected by the stream fault model
}

// Wrapper executes seeded faults around any Transport: loss and
// duplication for datagram transports, connection resets and write stalls
// when the inner transport is a StreamFaulter. Faults apply to outbound
// sends only; wrap both ends to fault both directions. Every method but
// Send is the embedded inner transport's.
type Wrapper struct {
	Transport
	// faulter is the inner transport's stream fault surface, when it has
	// one; nil for datagram transports, for which the stream rates are
	// inert.
	faulter StreamFaulter
	cfg     WrapperConfig

	mu    sync.Mutex
	dice  fault.Dice
	stats WrapperStats
}

// Wrap composes the fault model around inner.
func Wrap(inner Transport, cfg WrapperConfig) *Wrapper {
	w := &Wrapper{Transport: inner, cfg: cfg, dice: fault.NewDice(cfg.Seed)}
	w.faulter, _ = inner.(StreamFaulter)
	return w
}

// Send implements Transport: the datagram's fate — lost, once or twice —
// and, on a stream, whether its connection resets or stalls are drawn now,
// under the lock, so the faults are a pure function of the seed and the
// send order. The copies go to the inner transport on the caller's
// goroutine; the stream faults, which block on the inner transport's
// machinery, are injected after them.
func (w *Wrapper) Send(from, to Addr, payload []byte) error {
	w.mu.Lock()
	w.stats.Sent++
	fate := w.dice.Packet(fault.PacketRates{Loss: w.cfg.LossRate, Dup: w.cfg.DupRate}, len(payload))
	if fate.N == 0 {
		w.stats.Lost++
		w.mu.Unlock()
		return nil
	}
	if fate.N == 2 {
		w.stats.Duplicated++
	}
	var reset, stall bool
	if w.faulter != nil {
		reset, stall = w.dice.Stream(w.cfg.ResetRate, w.cfg.StallRate)
	}
	w.mu.Unlock()

	var firstErr error
	for i := 0; i < fate.N; i++ {
		if err := w.Transport.Send(from, to, payload); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if stall || reset {
		w.injectStream(to, reset, stall)
	}
	return firstErr
}

// injectStream applies a drawn stream fate to the connection now carrying
// traffic to to. A stall lands first — a reset would leave it nothing to
// freeze. Only faults that found a live connection are counted: fates are
// deterministic, hits depend on what the state machine had up.
func (w *Wrapper) injectStream(to Addr, reset, stall bool) {
	if stall {
		d := w.cfg.StallFor
		if d == 0 {
			d = 100 * time.Millisecond
		}
		if w.faulter.StallPeer(to, d) {
			w.mu.Lock()
			w.stats.Stalls++
			w.mu.Unlock()
		}
	}
	if reset {
		if w.faulter.ResetPeer(to) {
			w.mu.Lock()
			w.stats.Resets++
			w.mu.Unlock()
		}
	}
}

// InjectedStats reports the faults injected so far.
func (w *Wrapper) InjectedStats() WrapperStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}
