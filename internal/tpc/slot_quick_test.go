package tpc

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestSlotResourceInvariantsQuick drives random prepare/commit/abort
// messages through a participant's table and checks the safety invariants
// after every step:
//
//   - committed + held never exceeds capacity,
//   - Available is exactly capacity − committed − held,
//   - committed never decreases,
//   - re-running an operation for a settled transaction is a no-op.
func TestSlotResourceInvariantsQuick(t *testing.T) {
	f := func(seed int64, capSmall uint8) bool {
		capacity := int64(capSmall%20) + 1
		rng := rand.New(rand.NewSource(seed))
		s := NewSlotResource(map[string]int64{"item": capacity})
		p := NewParticipant(s)
		type txState int
		const (
			idle txState = iota
			prepared
			settled
		)
		states := make(map[string]txState)
		lastCommitted := int64(0)
		for step := 0; step < 300; step++ {
			txid := fmt.Sprintf("t%d", rng.Intn(12))
			n := int64(rng.Intn(3) + 1)
			switch rng.Intn(3) {
			case 0:
				okPrep := deliver(p, "prepare", txid, SlotOp("item", n)) == "vote_yes"
				switch states[txid] {
				case prepared:
					if !okPrep {
						return false // re-prepare must stay yes
					}
				case idle:
					if okPrep {
						states[txid] = prepared
					}
				}
			case 1:
				deliver(p, "commit", txid, nil)
				if states[txid] == prepared {
					states[txid] = settled
				}
			case 2:
				deliver(p, "abort", txid, nil)
				if states[txid] == prepared {
					states[txid] = settled
				}
			}
			committed := s.Committed("item")
			held := s.Held("item")
			if committed+held > capacity {
				return false
			}
			if s.Available("item") != capacity-committed-held {
				return false
			}
			if committed < lastCommitted {
				return false
			}
			lastCommitted = committed
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSlotResourceCommitAbortExclusive: once a transaction commits, a late
// abort must not release its units (and vice versa).
func TestSlotResourceCommitAbortExclusive(t *testing.T) {
	s := NewSlotResource(map[string]int64{"item": 5})
	p := NewParticipant(s)
	if deliver(p, "prepare", "tx", SlotOp("item", 3)) != "vote_yes" {
		t.Fatal("prepare")
	}
	deliver(p, "commit", "tx", nil)
	deliver(p, "abort", "tx", nil) // late duplicate abort
	if s.Committed("item") != 3 {
		t.Fatalf("late abort clawed back committed units: %d", s.Committed("item"))
	}
	s2 := NewSlotResource(map[string]int64{"item": 5})
	p2 := NewParticipant(s2)
	if deliver(p2, "prepare", "tx", SlotOp("item", 3)) != "vote_yes" {
		t.Fatal("prepare")
	}
	deliver(p2, "abort", "tx", nil)
	deliver(p2, "commit", "tx", nil) // late duplicate commit
	if s2.Committed("item") != 0 {
		t.Fatalf("late commit applied aborted units: %d", s2.Committed("item"))
	}
}
