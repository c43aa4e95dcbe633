package wire

import (
	"bytes"
	"math"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/xrep"
)

// aliasFrame carries every kind of value that holds bytes of its own.
func aliasFrame() *Frame {
	f := sampleFrame()
	f.Args = xrep.Seq{
		xrep.Str("a string argument"),
		xrep.Bytes("raw bytes"),
		xrep.Token{Issuer: 5, Body: []byte("token body"), Seal: []byte("seal")},
		xrep.Rec{Name: "named", Fields: xrep.Seq{xrep.Str("field"), xrep.PortName{Node: "elsewhere", Guardian: 1, Port: 2}}},
	}
	return f
}

// TestDecodedFrameDoesNotAliasPackets is the guardian boundary at the byte
// level: a single-packet frame is a slice of its packet, but nothing in a
// decoded frame — header strings, Str, Bytes, Token, record and port names
// — refers to the packets or to the frame's bytes.
func TestDecodedFrameDoesNotAliasPackets(t *testing.T) {
	for _, mtu := range []int{0, 64} {
		f := aliasFrame()
		raw, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		pkts, err := Fragment(f.MsgID, raw, mtu)
		if err != nil {
			t.Fatal(err)
		}
		ra := NewReassembler()
		var frameBytes []byte
		for _, p := range pkts {
			if frameBytes, err = ra.Add("s", p, time.Unix(0, 0)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := UnmarshalFrame(frameBytes)
		if err != nil {
			t.Fatalf("mtu %d: %v", mtu, err)
		}
		for _, p := range pkts {
			for i := range p {
				p[i] = 0xFF
			}
		}
		for i := range frameBytes {
			frameBytes[i] = 0xFF
		}
		want := aliasFrame()
		if got.Dest != want.Dest || got.ReplyTo != want.ReplyTo || got.SrcNode != want.SrcNode ||
			got.Command != want.Command || !xrep.Equal(got.Args, want.Args) {
			t.Fatalf("mtu %d: decoded frame changed when its packets were overwritten: %+v", mtu, got)
		}
	}
}

// TestSinglePacketDuplicateSuppressed: a one-packet message skips the
// pending table but is still remembered, for MaxAge and no longer.
func TestSinglePacketDuplicateSuppressed(t *testing.T) {
	pkts, err := Fragment(11, []byte("once only"), 0)
	if err != nil {
		t.Fatal(err)
	}
	ra := NewReassembler()
	ra.MaxAge = 30 * time.Second
	t0 := time.Unix(1000, 0)
	if got, err := ra.Add("s", bytes.Clone(pkts[0]), t0); err != nil || string(got) != "once only" {
		t.Fatalf("first copy: %q, %v", got, err)
	}
	if ra.Pending() != 0 {
		t.Fatalf("a single packet left %d pending entries", ra.Pending())
	}
	if got, err := ra.Add("s", bytes.Clone(pkts[0]), t0.Add(29*time.Second)); err != nil || got != nil {
		t.Fatalf("duplicate inside MaxAge: %q, %v", got, err)
	}
	if got, err := ra.Add("other", bytes.Clone(pkts[0]), t0); err != nil || got == nil {
		t.Fatalf("same id from another sender: %q, %v", got, err)
	}
	// A multi-fragment message reusing a completed id is a duplicate too.
	multi, _ := Fragment(11, make([]byte, 200), 64)
	if got, err := ra.Add("s", multi[0], t0); err != nil || got != nil || ra.Pending() != 0 {
		t.Fatalf("fragment under a completed id: %q, %v, pending %d", got, err, ra.Pending())
	}
	// Past MaxAge Add's own sweep has forgotten the id.
	if got, err := ra.Add("s", bytes.Clone(pkts[0]), t0.Add(61*time.Second)); err != nil || got == nil {
		t.Fatalf("copy after MaxAge: %q, %v", got, err)
	}
}

// TestCompletedIdsAreRunsPerSender: 100,000 in-order single-packet
// messages from one sender, a millisecond apart, leave that sender a few
// runs of ids — one per MaxAge/2 still remembered — not an entry per id.
// An id is a duplicate for at least MaxAge and forgotten within 2×MaxAge,
// though later ids kept extending the sender's runs.
func TestCompletedIdsAreRunsPerSender(t *testing.T) {
	ra := NewReassembler()
	ra.MaxAge = 30 * time.Second
	t0 := time.Unix(1000, 0)
	var pkt []byte
	const total = 100_000
	for id := uint64(1); id <= total; id++ {
		pkt = AppendPacket(pkt[:0], id, 0, 1, []byte("m"))
		if got, err := ra.Add("s", pkt, t0.Add(time.Duration(id)*time.Millisecond)); err != nil || got == nil {
			t.Fatalf("message %d: %q, %v", id, got, err)
		}
	}
	end := t0.Add(total * time.Millisecond)
	if len(ra.completed) != 1 || len(ra.completed["s"].runs) > 5 {
		t.Fatalf("%d senders, %d runs remembered, want 1 sender with at most 5", len(ra.completed), len(ra.completed["s"].runs))
	}
	for _, id := range []uint64{total - 29_000, total} {
		pkt = AppendPacket(pkt[:0], id, 0, 1, []byte("m"))
		if got, err := ra.Add("s", pkt, end); err != nil || got != nil {
			t.Fatalf("id %d, within MaxAge: %q, %v", id, got, err)
		}
	}
	// Id 1 completed 100 s ago: its run closed and was forgotten.
	if got, err := ra.Add("s", AppendPacket(nil, 1, 0, 1, []byte("m")), end); err != nil || got == nil {
		t.Fatalf("id 1, 100 s after it completed: %q, %v", got, err)
	}
	// Another sender's message 2×MaxAge on sweeps: "s" is forgotten.
	if _, err := ra.Add("t", pkt, end.Add(60*time.Second)); err != nil || ra.completed["s"] != nil {
		t.Fatalf("2×MaxAge after its last message, sender s still has %v (%v)", ra.completed["s"], err)
	}
}

// TestCompletedIdsWithGapsOrOutOfOrder: ids a sender's messages reach a
// receiver with gaps (a node numbering across four peers) cost one run each,
// appended: no id waits in the map, the runs stay ascending in id and time,
// which is what lets a sweep stop at the first run it keeps, and only the
// last 1.5×MaxAge of them are held. Ids in random order go in the map, so
// none is inserted mid-slice. Either way each id is a duplicate until it is
// forgotten.
func TestCompletedIdsWithGapsOrOutOfOrder(t *testing.T) {
	ra := NewReassembler()
	ra.MaxAge = 30 * time.Second
	t0 := time.Unix(1000, 0)
	var pkt []byte
	add := func(sender string, id uint64, at time.Time) []byte {
		pkt = AppendPacket(pkt[:0], id, 0, 1, []byte("m"))
		got, err := ra.Add(sender, pkt, at)
		if err != nil {
			t.Fatalf("%s id %d: %v", sender, id, err)
		}
		return got
	}
	const total = 100_000
	for i := uint64(1); i <= total; i++ {
		if add("g", 4*i, t0.Add(time.Duration(i)*time.Millisecond)) == nil {
			t.Fatalf("gapped id %d not delivered", 4*i)
		}
	}
	end := t0.Add(total * time.Millisecond)
	g := ra.completed["g"]
	if len(g.late) != 0 || len(g.runs) > 45_001 || cap(g.runs) > 2*45_001 {
		t.Fatalf("gapped ids: %d in the map, %d runs (cap %d), want 0 and at most 45,001", len(g.late), len(g.runs), cap(g.runs))
	}
	for i := 1; i < len(g.runs); i++ {
		if g.runs[i].lo <= g.runs[i-1].hi || g.runs[i].last.Before(g.runs[i-1].last) {
			t.Fatalf("runs %d and %d out of order: %+v %+v", i-1, i, g.runs[i-1], g.runs[i])
		}
	}
	if add("g", 4*(total-29_000), end) != nil || add("g", 4, end) == nil {
		t.Fatal("a gapped id within MaxAge was delivered again, or one 100 s old was not")
	}

	const n = 10_000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for pass := 0; pass < 2; pass++ {
		for _, id := range perm {
			if got := add("r", uint64(id), end); (got == nil) != (pass == 1) {
				t.Fatalf("pass %d, id %d: delivered %v", pass, id, got != nil)
			}
		}
	}
	if r := ra.completed["r"]; len(r.runs) > 30 {
		t.Fatalf("random order: %d runs, want at most 30 (%d in the map)", len(r.runs), len(r.late))
	}
	if add("g", 4*total+4, end.Add(61*time.Second)); ra.completed["r"] != nil {
		t.Fatal("2×MaxAge on, the random-order sender is still remembered")
	}
}

// TestSinglePacketAgainstPendingIsInconsistent: the one-packet shortcut
// does not bypass the count check against earlier fragments.
func TestSinglePacketAgainstPendingIsInconsistent(t *testing.T) {
	multi, _ := Fragment(4, make([]byte, 200), 64)
	single, _ := Fragment(4, []byte("x"), 0)
	ra := NewReassembler()
	now := time.Unix(0, 0)
	if _, err := ra.Add("s", multi[0], now); err != nil {
		t.Fatal(err)
	}
	if got, err := ra.Add("s", single[0], now); err == nil {
		t.Fatalf("count 1 accepted against %d pending fragments: %q", len(multi), got)
	}
}

// TestAddSweepsByAge: with MaxAge set, Add evicts stale partial messages
// itself, so a receiver takes one lock per packet.
func TestAddSweepsByAge(t *testing.T) {
	stale, _ := Fragment(1, make([]byte, 200), 64)
	fresh, _ := Fragment(2, []byte("later"), 0)
	ra := NewReassembler()
	ra.MaxAge = 10 * time.Second
	t0 := time.Unix(500, 0)
	if _, err := ra.Add("s", stale[0], t0); err != nil {
		t.Fatal(err)
	}
	if _, err := ra.Add("s", fresh[0], t0.Add(5*time.Second)); err != nil || ra.Pending() != 1 {
		t.Fatalf("partial evicted early: pending %d, %v", ra.Pending(), err)
	}
	fresh2, _ := Fragment(3, []byte("much later"), 0)
	if _, err := ra.Add("s", fresh2[0], t0.Add(time.Minute)); err != nil || ra.Pending() != 0 {
		t.Fatalf("stale partial survived Add's sweep: pending %d, %v", ra.Pending(), err)
	}
}

// TestInterleavedSendersSharedMsgID: fragments from two senders using the
// same message id, arriving interleaved and reversed, still come out as two
// intact frames.
func TestInterleavedSendersSharedMsgID(t *testing.T) {
	mk := func(fill byte) []byte {
		b := make([]byte, 1000)
		for i := range b {
			b[i] = fill + byte(i%7)
		}
		return b
	}
	frameA, frameB := mk(10), mk(100)
	a, _ := Fragment(9, frameA, 128)
	b, _ := Fragment(9, frameB, 128)
	ra := NewReassembler()
	now := time.Unix(0, 0)
	var gotA, gotB []byte
	for i := range a {
		out, err := ra.Add("A", a[i], now)
		if err != nil {
			t.Fatal(err)
		}
		if out != nil {
			gotA = out
		}
		if out, err = ra.Add("B", b[len(b)-1-i], now); err != nil {
			t.Fatal(err)
		}
		if out != nil {
			gotB = out
		}
	}
	if !bytes.Equal(gotA, frameA) || !bytes.Equal(gotB, frameB) {
		t.Fatalf("interleaved senders sharing an id did not reassemble (%d and %d bytes)", len(gotA), len(gotB))
	}
}

// TestPacketsRefusesTooManyFragments: the fragment-count bound holds at
// both ends — a sender will not split a frame past it, a receiver drops a
// packet that claims more.
func TestPacketsRefusesTooManyFragments(t *testing.T) {
	mtu := packetOverhead + 1
	if _, count, err := Packets(maxFragments, mtu); err != nil || count != maxFragments {
		t.Fatalf("%d fragments: count %d, %v", maxFragments, count, err)
	}
	if _, _, err := Packets(maxFragments+1, mtu); err == nil {
		t.Fatal("a frame of more than maxFragments packets was accepted")
	}
	ra := NewReassembler()
	pkt := AppendPacket(nil, 1, 0, maxFragments+1, []byte("x"))
	if _, err := ra.Add("s", pkt, time.Unix(0, 0)); err == nil || ra.Pending() != 0 {
		t.Fatalf("a packet claiming %d fragments was accepted (%v)", maxFragments+1, err)
	}
}

// TestSmallFrameAllocCeilings pins what a small message costs the wire
// layer, so buffer churn cannot silently return: encoding into reused
// buffers allocates nothing, and receiving into a caller-owned Frame
// allocates only what the frame points to (the string slab, the slot
// slab, and an interface box per string argument). An empty list adds no
// box: it decodes to a nil Seq.
func TestSmallFrameAllocCeilings(t *testing.T) {
	f := sampleFrame()
	var frameBuf, pktBuf []byte
	encode := func() {
		var err error
		if frameBuf, err = AppendFrame(frameBuf[:0], f); err != nil {
			t.Fatal(err)
		}
		pktBuf = AppendPacket(pktBuf[:0], f.MsgID, 0, 1, frameBuf)
	}
	if n := testing.AllocsPerRun(200, encode); n != 0 {
		t.Errorf("encoding a small frame into reused buffers allocates %v times, want 0", n)
	}

	receive := func() float64 {
		const runs = 200
		pkts := make([][]byte, runs+1) // AllocsPerRun makes one warm-up call
		for i := range pkts {
			f.MsgID = uint64(i + 1)
			encode()
			pkts[i] = bytes.Clone(pktBuf)
		}
		ra := NewReassembler()
		now := time.Unix(0, 0)
		next := 0
		return testing.AllocsPerRun(runs, func() {
			segs, err := ra.Collect("chicago", pkts[next], now)
			next++
			if err != nil || segs.IsZero() {
				t.Fatalf("Collect: %v", err)
			}
			var fr Frame
			if err := UnmarshalSegments(&fr, segs); err != nil {
				t.Fatal(err)
			}
		})
	}
	// 4 for the frame; the rest is the completed-id table growing.
	small := receive()
	if small > 5 {
		t.Errorf("receiving a small frame allocates %v times, want at most 5", small)
	}
	f.Args = append(f.Args, xrep.Seq{})
	if n := receive(); n != small {
		t.Errorf("receiving it with an empty list as well allocates %v times, want the same %v", n, small)
	}
}

// TestReassemblyAllocCeiling: a warm Collect → decode → Release cycle of a
// three-fragment message, every packet lent from one reused buffer,
// allocates no payload bytes — the fragments the reassembler keeps are
// copied into buffers Release gave back. So what a cycle allocates beyond
// the decode's own slabs is the same with 1 KiB as with 15 KiB fragments,
// and less than one fragment of either.
func TestReassemblyAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
	const cycles = 100
	overhead := func(fragment int) float64 {
		f := sampleFrame()
		f.Args = xrep.Seq{xrep.Str(strings.Repeat("x", 5*fragment/2))}
		ra := NewReassembler()
		var frameBuf, lent []byte
		var got Frame
		cycle := func() {
			f.MsgID++
			var err error
			if frameBuf, err = AppendFrame(frameBuf[:0], f); err != nil {
				t.Fatal(err)
			}
			chunk, count, err := Packets(len(frameBuf), fragment+packetOverhead)
			if err != nil || count != 3 {
				t.Fatalf("%d packets of a %d-byte frame, %v", count, len(frameBuf), err)
			}
			var segs Segments
			for i := 0; i < count; i++ {
				lent = AppendPacket(lent[:0], f.MsgID, i, count, frameBuf[i*chunk:min((i+1)*chunk, len(frameBuf))])
				if segs, err = ra.Collect("s", lent, time.Unix(0, 0)); err != nil {
					t.Fatal(err)
				}
			}
			if err := UnmarshalSegments(&got, segs); err != nil {
				t.Fatal(err)
			}
			ra.Release(segs)
		}
		for i := 0; i < 10; i++ {
			cycle()
		}
		total := allocated(func() {
			for i := 0; i < cycles; i++ {
				cycle()
			}
		})
		decoding := allocated(func() {
			for i := 0; i < cycles; i++ {
				_ = UnmarshalSegments(&got, Contiguous(frameBuf))
			}
		})
		return (float64(total) - float64(decoding)) / cycles
	}
	small, large := overhead(1<<10), overhead(15<<10)
	t.Logf("a cycle allocates %.0f B beyond its decode with 1 KiB fragments, %.0f B with 15 KiB", small, large)
	if small > 1<<10 || large > 1<<10 || math.Abs(large-small) > 512 {
		t.Errorf("reassembling allocates payload bytes: %.0f B a cycle with 1 KiB fragments, %.0f B with 15 KiB", small, large)
	}
}
