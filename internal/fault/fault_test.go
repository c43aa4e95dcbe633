package fault

import (
	"testing"
	"time"
)

// TestRunFateStreamsMatchParent pins the seed derivation of a simulated
// run to values computed with the formula internal/dst used before it moved
// here: the master stream's draws 1–3 for the network, the schedule and the
// workload, workload + 7919·i for client i, seed ^ fnv64a(node) for a
// node's storage. The schedule stream is pinned end to end by
// internal/dst/testdata/schedule_parent.txt; these are the other streams.
func TestRunFateStreamsMatchParent(t *testing.T) {
	for _, want := range []struct {
		seed, net, schedule, client0, client2, storage int64
	}{
		{seed: 1, net: 5577006791947779410, schedule: 8113958273800549226, client0: 9061084568384486742, client2: 7360766050424187841, storage: 637538656335744919},
		{seed: 42, net: 3440579354231278675, schedule: 5768953606373123674, client0: 5791293220403443420, client2: 4366974657328035035, storage: 637538656335744956},
		{seed: 1979, net: 5902767956710967457, schedule: 1898996067486860237, client0: 16961956922005914, client2: 7854577005566462985, storage: 637538656335743021},
	} {
		r := NewRun(want.seed)
		if got := r.Net(); got != want.net {
			t.Errorf("seed %d: net seed %d, want %d", want.seed, got, want.net)
		}
		if got := r.Schedule().Int63(); got != want.schedule {
			t.Errorf("seed %d: schedule stream starts %d, want %d", want.seed, got, want.schedule)
		}
		if got := r.Client(0).Int63(); got != want.client0 {
			t.Errorf("seed %d: client 0 stream starts %d, want %d", want.seed, got, want.client0)
		}
		if got := r.Client(2).Int63(); got != want.client2 {
			t.Errorf("seed %d: client 2 stream starts %d, want %d", want.seed, got, want.client2)
		}
		if got := r.Storage("s0"); got != want.storage {
			t.Errorf("seed %d: storage seed of s0 %d, want %d", want.seed, got, want.storage)
		}
	}
}

// TestPacketFateAllocatesNothing: a packet's fate is a fixed-size value, so
// drawing one — on the simulator's send path — allocates nothing.
func TestPacketFateAllocatesNothing(t *testing.T) {
	d := NewDice(1)
	r := PacketRates{Loss: 0.2, Dup: 0.5, Reorder: 0.3, Corrupt: 0.3, Jitter: time.Millisecond}
	var f PacketFate
	if n := testing.AllocsPerRun(1000, func() { f = d.Packet(r, 64) }); n != 0 {
		t.Fatalf("Packet allocates %v times, want 0", n)
	}
	if f.N > 2 || f.Bit < 0 || f.Bit >= 64*8 {
		t.Fatalf("fate out of range: %+v", f)
	}
}

// TestFateDrawCounts: the draws that never happen — an empty batch's sync,
// the jitter of a link without any — take nothing from the stream, and a
// lost packet takes exactly one value, so what follows stays aligned.
func TestFateDrawCounts(t *testing.T) {
	next := func(draw func(Dice)) float64 {
		d := NewDice(7)
		draw(d)
		return d.r.Float64()
	}
	none := next(func(Dice) {})
	one := next(func(d Dice) { d.r.Float64() })
	if got := next(func(d Dice) { d.Sync(SyncRates{Fail: 1}, 1, 0) }); got != none {
		t.Error("an empty batch's sync drew from the stream")
	}
	if got := next(func(d Dice) { d.Packet(PacketRates{Loss: 1, Jitter: time.Second}, 8) }); got != one {
		t.Error("a lost packet drew more than its loss decision")
	}
	if got := next(func(d Dice) { d.Sync(SyncRates{}, 8, 3) }); got != one {
		t.Error("a clean sync drew more than its one fate value")
	}
}
