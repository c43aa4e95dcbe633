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
	held      map[string]int64 // units held by prepared transactions
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
		held:      make(map[string]int64),
	}
}

// SlotOp builds the prepare operation value.
func SlotOp(item string, n int64) xrep.Value {
	return xrep.Seq{xrep.Str(item), xrep.Int(n)}
}

// slotOp reads a prepare operation; ok is false for a malformed one.
func slotOp(op xrep.Value) (item string, n int64, ok bool) {
	f := xrep.ReadSeq(op, 2)
	item, n = f.Str(), f.Int()
	return item, n, f.Err() == nil && n > 0
}

// Vote implements Resource: n units of a known item fit beside what is
// committed and held.
func (s *SlotResource) Vote(op xrep.Value) bool {
	item, n, ok := slotOp(op)
	if !ok {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	capacity, exists := s.capacity[item]
	return exists && s.committed[item]+s.held[item]+n <= capacity
}

// Prepare implements Resource.
func (s *SlotResource) Prepare(op xrep.Value) { s.move(op, 1, 0) }

// Commit implements Resource.
func (s *SlotResource) Commit(op xrep.Value) { s.move(op, -1, 1) }

// Abort implements Resource.
func (s *SlotResource) Abort(op xrep.Value) { s.move(op, -1, 0) }

// move adds op's units, times held and times committed, to its item's
// held and committed counts.
func (s *SlotResource) move(op xrep.Value, held, committed int64) {
	if item, n, ok := slotOp(op); ok {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.held[item] += held * n
		s.committed[item] += committed * n
	}
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
	return s.held[item]
}

// Available reports the uncommitted, unheld units of item.
func (s *SlotResource) Available(item string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.capacity[item] - s.committed[item] - s.held[item]
}
