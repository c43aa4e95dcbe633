package amo

import (
	"sync"
	"testing"
	"time"

	"repro/internal/guardian"
	"repro/internal/xrep"
)

// envelope fabricates one amo_req delivery as ParseRequest expects it:
// (client, seq, ack, command, args), with no reply port — these tests
// audit the filter's table, not the reply path.
func envelope(client string, seq, ack int64, cmd string) *guardian.Message {
	return &guardian.Message{
		Command: ReqCommand,
		Args: xrep.Seq{
			xrep.Str(client), xrep.Int(seq), xrep.Int(ack), xrep.Str(cmd), xrep.Seq{},
		},
	}
}

// watermark reads a session's prune watermark under the filter's lock.
func (d *Dedup) watermark(client string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.sessions[client]
	if !ok {
		return -1
	}
	return s.pruned
}

// TestPruneWatermarkNeverRegresses: a late retransmission carrying an
// older ack must not lower the watermark — lowering it would re-admit
// request ids the client already proved it holds answers for, losing the
// at-most-once guarantee for them.
func TestPruneWatermarkNeverRegresses(t *testing.T) {
	var mu sync.Mutex
	exec := make(map[int64]int)
	d := NewDedup(DedupOptions{})
	hook := d.Hook(func(pr *guardian.Process, req Request) (string, xrep.Seq, bool) {
		mu.Lock()
		exec[req.Seq]++
		mu.Unlock()
		return "ok", nil, false
	})

	// A well-behaved sequential client: each call acks the previous.
	for seq := int64(1); seq <= 5; seq++ {
		hook(nil, envelope("c", seq, seq-1, "op"))
	}
	if got := d.watermark("c"); got != 4 {
		t.Fatalf("watermark = %d after acks through 4, want 4", got)
	}
	if got := d.Cached("c"); got != 1 {
		t.Fatalf("cached = %d, want 1 (only the unacked seq 5)", got)
	}

	// Reordered delivery: seq 6 carries a STALE ack (2 < 4).
	hook(nil, envelope("c", 6, 2, "op"))
	if got := d.watermark("c"); got != 4 {
		t.Fatalf("stale ack regressed the watermark to %d, want 4", got)
	}

	// A duplicate at or below the watermark is dropped without execution.
	hook(nil, envelope("c", 3, 0, "op"))
	mu.Lock()
	n3 := exec[3]
	mu.Unlock()
	if n3 != 1 {
		t.Fatalf("seq 3 executed %d times after a below-watermark duplicate, want 1", n3)
	}
}

// TestPruneUnknownClient: the first envelope a server ever sees from a
// client may already carry a (possibly absurd) ack. Pruning must work on
// the fresh, empty session — and the self-reported watermark binds that
// client's own later low seqs.
func TestPruneUnknownClient(t *testing.T) {
	var mu sync.Mutex
	exec := make(map[int64]int)
	d := NewDedup(DedupOptions{})
	hook := d.Hook(func(pr *guardian.Process, req Request) (string, xrep.Seq, bool) {
		mu.Lock()
		exec[req.Seq]++
		mu.Unlock()
		return "ok", nil, false
	})

	// Never-seen client, watermark claimed at 1<<40.
	hook(nil, envelope("ghost", 1<<40+1, 1<<40, "op"))
	mu.Lock()
	nHigh := exec[1<<40+1]
	mu.Unlock()
	if nHigh != 1 {
		t.Fatalf("first request from unknown client executed %d times, want 1", nHigh)
	}
	if got := d.watermark("ghost"); got != 1<<40 {
		t.Fatalf("watermark = %d, want %d", got, int64(1)<<40)
	}
	// A seq below the client's own claimed watermark is a duplicate by the
	// client's own statement: dropped, never executed.
	hook(nil, envelope("ghost", 40, 0, "op"))
	mu.Lock()
	nLow := exec[40]
	mu.Unlock()
	if nLow != 0 {
		t.Fatalf("below-watermark request from unknown client executed %d times, want 0", nLow)
	}
	// Distinct clients are distinct sessions: the same low seq from a
	// different client id executes normally.
	hook(nil, envelope("other", 40, 0, "op"))
	mu.Lock()
	nOther := exec[40]
	mu.Unlock()
	if nOther != 1 {
		t.Fatalf("other client's seq 40 executed %d times, want 1", nOther)
	}
}

// TestPruneUnderConcurrentReplay (run under -race): while a request's
// handler is still executing, a racing duplicate of the same id must be
// dropped (not re-executed), and a concurrent later request pruning the
// table must not disturb either. This is the §3.5 retry storm in
// miniature: the retry can arrive before the first execution finishes.
func TestPruneUnderConcurrentReplay(t *testing.T) {
	var mu sync.Mutex
	exec := make(map[int64]int)
	block := make(chan struct{})
	d := NewDedup(DedupOptions{})
	hook := d.Hook(func(pr *guardian.Process, req Request) (string, xrep.Seq, bool) {
		mu.Lock()
		exec[req.Seq]++
		mu.Unlock()
		if req.Seq == 10 {
			<-block // hold seq 10 mid-execution
		}
		return "ok", nil, false
	})

	// Warm the session: seqs 1..9 answered.
	for seq := int64(1); seq <= 9; seq++ {
		hook(nil, envelope("c", seq, seq-1, "op"))
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hook(nil, envelope("c", 10, 9, "op")) // blocks in the handler
	}()
	// Wait until seq 10 is marked executing.
	for {
		d.mu.Lock()
		executing := d.sessions["c"] != nil && d.sessions["c"].executing[10]
		d.mu.Unlock()
		if executing {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}

	wg.Add(2)
	go func() {
		defer wg.Done()
		hook(nil, envelope("c", 10, 9, "op")) // racing duplicate: must drop
	}()
	go func() {
		defer wg.Done()
		hook(nil, envelope("c", 11, 9, "op")) // concurrent later request
	}()
	time.Sleep(time.Millisecond) // let the racers reach the filter
	close(block)
	wg.Wait()

	mu.Lock()
	n10, n11 := exec[10], exec[11]
	mu.Unlock()
	if n10 != 1 {
		t.Fatalf("seq 10 executed %d times under concurrent replay, want 1", n10)
	}
	if n11 != 1 {
		t.Fatalf("seq 11 executed %d times, want 1", n11)
	}

	// Once seq 12 acks 11, everything at or below is pruned; a stale ack
	// afterwards changes nothing.
	hook(nil, envelope("c", 12, 11, "op"))
	if got := d.watermark("c"); got != 11 {
		t.Fatalf("watermark = %d after ack 11, want 11", got)
	}
	if got := d.Cached("c"); got != 1 {
		t.Fatalf("cached = %d, want 1 (only seq 12)", got)
	}
	hook(nil, envelope("c", 13, 3, "op"))
	if got := d.watermark("c"); got != 11 {
		t.Fatalf("stale ack regressed watermark to %d, want 11", got)
	}
}
