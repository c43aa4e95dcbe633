package amo

import (
	"sync"
	"time"

	"repro/internal/guardian"
	"repro/internal/sendprim"
	"repro/internal/watchdog"
	"repro/internal/xrep"
)

// Health is the circuit breaker: a live map of node liveness fed by a
// watchdog subscription. A Caller configured with a Health fails calls to
// a down node fast (ErrCircuitOpen) instead of burning its whole retry and
// backoff budget probing a corpse — the failure detector of §3.4 put to
// work on the client side.
type Health struct {
	port *guardian.Port

	mu   sync.Mutex
	down map[string]bool
}

// NewHealth creates a watchdog event port on the guardian and spawns a
// listener process that folds node_down/node_up events into the map. Wire
// it to a watchdog with Subscribe (or feed it directly with MarkDown and
// MarkUp in tests).
func NewHealth(g *guardian.Guardian) (*Health, error) {
	port, err := g.NewPort(watchdog.EventPortType, 64)
	if err != nil {
		return nil, err
	}
	h := &Health{port: port, down: make(map[string]bool)}
	g.Spawn("amo-health", func(pr *guardian.Process) {
		for {
			m, st := pr.Receive(guardian.Infinite, port)
			if st == guardian.RecvKilled {
				return
			}
			if st != guardian.RecvOK || m.IsFailure() {
				continue
			}
			switch m.Command {
			case "node_down":
				h.MarkDown(m.Str(0))
			case "node_up":
				h.MarkUp(m.Str(0))
			}
		}
	})
	return h, nil
}

// Subscribe registers the health map with a watchdog guardian's control
// port. It is a plain remote transaction send; retrying is safe because
// re-subscribing is idempotent from the map's point of view (duplicate
// event deliveries collapse into the same booleans).
func (h *Health) Subscribe(pr *guardian.Process, wd xrep.PortName, timeout time.Duration) error {
	_, err := sendprim.Call(pr, wd, watchdog.ClientReplyType,
		sendprim.CallOptions{Timeout: timeout, Retries: 2, Backoff: timeout / 4},
		"subscribe", h.port.Name())
	return err
}

// Down reports whether the node is currently believed down. Unknown nodes
// are up: the breaker is an optimization, never a gate on fresh targets.
func (h *Health) Down(node string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.down[node]
}

// MarkDown records a node as down.
func (h *Health) MarkDown(node string) {
	h.mu.Lock()
	h.down[node] = true
	h.mu.Unlock()
}

// MarkUp records a node as up again.
func (h *Health) MarkUp(node string) {
	h.mu.Lock()
	delete(h.down, node)
	h.mu.Unlock()
}
