package tpc

import (
	"sync"

	"repro/internal/xrep"
)

// SlotResource is a capacity-limited inventory: a named pool of slots
// (seats on a flight, rooms in a hotel, units of stock). The prepare
// operation is Seq{Str(item), Int(n)} — hold n units of item; commit
// consumes the hold, abort releases it. It is the concrete resource used
// by the travel-booking example and the E9 experiment.
//
// Note one operation per participant per transaction: 2PC votes are
// per-participant, so a transaction wanting several items from one
// inventory encodes them in a single operation.
type SlotResource struct {
	mu        sync.Mutex
	capacity  map[string]int64
	committed map[string]int64
	// holds maps txid → (item, n) held by a prepared transaction.
	holds map[string]slotHold
}

type slotHold struct {
	item string
	n    int64
}

// NewSlotResource creates an inventory with the given per-item capacities.
func NewSlotResource(capacity map[string]int64) *SlotResource {
	c := make(map[string]int64, len(capacity))
	for k, v := range capacity {
		c[k] = v
	}
	return &SlotResource{
		capacity:  c,
		committed: make(map[string]int64),
		holds:     make(map[string]slotHold),
	}
}

// SlotOp builds the prepare operation value.
func SlotOp(item string, n int64) xrep.Value {
	return xrep.Seq{xrep.Str(item), xrep.Int(n)}
}

// Prepare implements Resource.
func (s *SlotResource) Prepare(txid string, op xrep.Value) bool {
	f := xrep.ReadSeq(op, 2)
	item, n := f.Str(), f.Int()
	if f.Err() != nil || n <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.holds[txid]; dup {
		return true // idempotent re-prepare
	}
	capacity, exists := s.capacity[item]
	if !exists {
		return false
	}
	held := int64(0)
	for _, h := range s.holds {
		if h.item == item {
			held += h.n
		}
	}
	if s.committed[item]+held+n > capacity {
		return false
	}
	s.holds[txid] = slotHold{item: item, n: n}
	return true
}

// Commit implements Resource.
func (s *SlotResource) Commit(txid string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.holds[txid]
	if !ok {
		return // idempotent
	}
	delete(s.holds, txid)
	s.committed[h.item] += h.n
}

// Abort implements Resource.
func (s *SlotResource) Abort(txid string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.holds, txid) // idempotent
}

// Committed reports the consumed units of item.
func (s *SlotResource) Committed(item string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.committed[item]
}

// Held reports units currently held by prepared transactions.
func (s *SlotResource) Held(item string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var held int64
	for _, h := range s.holds {
		if h.item == item {
			held += h.n
		}
	}
	return held
}

// Available reports the uncommitted, unheld units of item.
func (s *SlotResource) Available(item string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var held int64
	for _, h := range s.holds {
		if h.item == item {
			held += h.n
		}
	}
	return s.capacity[item] - s.committed[item] - held
}
