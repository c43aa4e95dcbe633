package transport

import (
	"errors"
	"fmt"

	"repro/internal/netsim"
)

// Sim adapts the in-memory network simulator to the Transport interface.
// It adds nothing: every fault, delay and determinism property of
// internal/netsim passes straight through, which is what keeps the DST
// harness and every existing test byte-for-byte reproducible on top of
// the transport seam.
type Sim struct {
	net *netsim.Network
}

// NewSim wraps an existing simulator network.
func NewSim(n *netsim.Network) *Sim { return &Sim{net: n} }

// Network exposes the wrapped simulator for fault injection (partitions,
// per-link overrides) in tests and experiments.
func (s *Sim) Network() *netsim.Network { return s.net }

// Attach implements Transport.
func (s *Sim) Attach(a Addr, h Handler) error {
	s.net.Attach(netsim.Addr(a), func(from netsim.Addr, payload []byte) {
		h(Addr(from), payload)
	})
	return nil
}

// Detach implements Transport.
func (s *Sim) Detach(a Addr) { s.net.Detach(netsim.Addr(a)) }

// Attached implements Transport.
func (s *Sim) Attached(a Addr) bool { return s.net.Attached(netsim.Addr(a)) }

// Send implements Transport, translating the simulator's local errors into
// the transport-level ones.
func (s *Sim) Send(from, to Addr, payload []byte) error {
	err := s.net.Send(netsim.Addr(from), netsim.Addr(to), payload)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, netsim.ErrTooLarge):
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	case errors.Is(err, netsim.ErrUnknownSender):
		return fmt.Errorf("%w: %s", ErrNotAttached, from)
	case errors.Is(err, netsim.ErrEmptyPayload):
		return ErrEmptyPayload
	default:
		return err
	}
}

// Learn implements Transport. Simulator addresses already are logical
// names, so there is nothing to learn.
func (s *Sim) Learn(name, via Addr) {}

// Stats implements Transport.
func (s *Sim) Stats() Stats {
	st := s.net.Stats()
	return Stats{
		Sent:       st.Sent,
		Delivered:  st.Delivered,
		Dropped:    st.Lost + st.DroppedDst + st.Partition,
		Duplicated: st.Duplicated,
		BytesSent:  st.BytesSent,
	}
}

// Quiesce implements Transport: the simulator tracks in-flight packets
// exactly, so this really waits for silence.
func (s *Sim) Quiesce() { s.net.Quiesce() }

// Close implements Transport: every address detaches and the packets still
// in flight are discarded, so no delivery worker outlives it (sends from a
// detached address fail with ErrNotAttached). The simulator holds no OS
// resources; a world that never closes it leaves one parked worker per
// address that has received.
func (s *Sim) Close() error {
	s.net.Close()
	return nil
}
