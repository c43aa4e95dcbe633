package wire

import (
	"bytes"
	"math"
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
// slab, and an interface box per string argument).
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
	receive := func() {
		segs, err := ra.Collect("chicago", pkts[next], now)
		next++
		if err != nil || segs.IsZero() {
			t.Fatalf("Collect: %v", err)
		}
		var fr Frame
		if err := UnmarshalSegments(&fr, segs); err != nil {
			t.Fatal(err)
		}
	}
	// 4 for the frame; the rest is the completed-id table growing.
	if n := testing.AllocsPerRun(runs, receive); n > 5 {
		t.Errorf("receiving a small frame allocates %v times, want at most 5", n)
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
				_ = UnmarshalFrameInto(&got, frameBuf)
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
