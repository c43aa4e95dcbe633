package wire

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// allocated runs f and returns the heap bytes allocated meanwhile. Other
// goroutines' allocations count too, so bounds held against it carry slack.
func allocated(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// allocSlack absorbs allocations that are not the decoder's (the fuzzing
// engine's own goroutines) and its fixed costs (the Frame, an error).
const allocSlack = 64 << 10

// FuzzUnmarshalFrame feeds hostile bytes to the frame decoder. It must
// never panic; what it allocates is bounded by the input's length (a length
// field cannot make it reserve what the input does not carry: the worst
// honest ratio, measured, is a sequence of empty records — three bytes
// each for a 16-byte slot in the slab and a 48-byte box, 21.5× — and a
// refused input allocates nothing at all); a frame it accepts shares no
// memory with the input and survives AppendFrame → UnmarshalFrame; and the
// decoder gives the same answer when the bytes arrive in three segments, and
// when they are sized and filled into slots of the caller's.
func FuzzUnmarshalFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := bytes.Clone(data)
		var fr *Frame
		var err error
		if n := allocated(func() { fr, err = UnmarshalFrame(buf) }); n > allocSlack+22*uint64(len(buf)) {
			t.Fatalf("decoding %d bytes allocated %d", len(buf), n)
		}
		if filled, fillErr := fillCallerSlots(t, Contiguous(buf)); fillErr != err || (err == nil && !reflect.DeepEqual(filled, fr)) {
			t.Fatalf("into caller slots: %+v, %v; UnmarshalFrame: %+v, %v", filled, fillErr, fr, err)
		}
		// The same bytes arriving as three fragments get the same verdict.
		var seg Frame
		segErr := UnmarshalSegments(&seg, split(buf, len(buf)/3, len(buf)-len(buf)/4))
		if segErr != err || (err == nil && !sameFrame(&seg, fr)) {
			t.Fatalf("from segments: %+v, %v; contiguous: %+v, %v", seg, segErr, fr, err)
		}
		if err != nil {
			return
		}
		enc, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("re-encoding an accepted frame: %v", err)
		}
		for i := range buf {
			buf[i] ^= 0xFF
		}
		if enc2, _ := AppendFrame(nil, fr); !bytes.Equal(enc, enc2) {
			t.Fatal("decoded frame changed when the input was overwritten")
		}
		fr2, err := UnmarshalFrame(enc)
		if err != nil {
			t.Fatalf("decoding what AppendFrame wrote: %v", err)
		}
		if enc2, _ := AppendFrame(nil, fr2); !bytes.Equal(enc, enc2) {
			t.Fatal("frame changed across an encode/decode round trip")
		}
	})
}

// fuzzOp is one step of FuzzReassemblerAdd's script, six input bytes.
type fuzzOp struct {
	sender, msgID byte
	index, count  int
	payload       []byte
	corrupt       bool // flip a bit after the checksum is written
	sweep         bool // first let everything held so far age out
}

// parseFuzzOps reads the script. Bits of the flags byte stretch index and
// count past a byte, to reach indices beyond count and counts beyond
// maxFragments. Each op's payload is filled with its own ordinal, so which
// copy of a fragment ended up in a frame is visible.
func parseFuzzOps(data []byte) []fuzzOp {
	var ops []fuzzOp
	for ; len(data) >= 6; data = data[6:] {
		flags := data[5]
		op := fuzzOp{
			sender: data[0] % 3, msgID: data[1] % 4,
			index: int(data[2]), count: int(data[3]),
			payload: bytes.Repeat([]byte{byte(len(ops))}, int(data[4])),
			corrupt: flags&1 != 0, sweep: flags&8 != 0,
		}
		if flags&2 != 0 {
			op.count <<= 9
		}
		if flags&4 != 0 {
			op.index <<= 9
		}
		ops = append(ops, op)
	}
	return ops
}

// FuzzReassemblerAdd drives a reassembler with interleaved senders reusing
// a few message ids: duplicate and overlapping fragments, indices past
// count, counts that disagree with earlier fragments or exceed the bound,
// corrupt packets, ageing — and, first, the raw input as a packet. Every
// packet is lent, as a transport lends it: overwritten once its handler
// would have returned. It must never panic, must allocate no more than the
// fragment tables the packets justify (it copies payloads into recycled
// buffers and joins nothing), and must agree packet by packet with a model
// that states the rules outright.
func FuzzReassemblerAdd(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		now := time.Unix(0, 0)
		if n := allocated(func() { _, _ = NewReassembler().Add("raw", bytes.Clone(data), now) }); n > allocSlack+24*maxFragments {
			t.Fatalf("a raw %d-byte packet allocated %d", len(data), n)
		}

		type key struct{ sender, msgID byte }
		pending := make(map[key][][]byte) // fragments so far, by index
		completed := make(map[key]bool)
		senders := [3]string{"a", "b", "c"}
		ra := NewReassembler()
		for i, op := range parseFuzzOps(data) {
			if op.sweep {
				now = now.Add(10 * time.Second)
				ra.Sweep(now, 5*time.Second)
				clear(pending)
				clear(completed)
			}
			pkt := AppendPacket(nil, uint64(op.msgID), op.index, op.count, op.payload)
			if op.corrupt {
				pkt[len(pkt)/2] ^= 0x04
			}
			var segs Segments
			var err error
			budget := uint64(allocSlack)
			if op.count <= maxFragments {
				budget += 24 * uint64(op.count)
			}
			if n := allocated(func() { segs, err = ra.Collect(senders[op.sender], pkt, now) }); n > budget {
				t.Fatalf("op %d (%+v) allocated %d, budget %d", i, op, n, budget)
			}
			got := bytes.Clone(segs.Bytes()) // what outlives the handler is copied
			if (got == nil) != segs.IsZero() {
				t.Fatalf("op %d: Bytes is nil=%v of segments with IsZero=%v", i, got == nil, segs.IsZero())
			}
			// Whatever the fragments hold, the decoder reads it from them as
			// it reads it joined.
			var fromSegs Frame
			_, e2 := UnmarshalFrame(got)
			if e1 := UnmarshalSegments(&fromSegs, segs); e1 != e2 {
				t.Fatalf("op %d: decoding the segments: %v, joined: %v", i, e1, e2)
			}
			ra.Release(segs)
			for j := range pkt {
				pkt[j] = 0xA5 // the lender reuses the packet
			}

			// The model.
			k := key{op.sender, op.msgID}
			var want []byte
			var wantErr error
			switch parts := pending[k]; {
			case op.corrupt:
				wantErr = ErrPacketCRC
			case op.count == 0 || op.count > maxFragments || op.index >= op.count:
				wantErr = ErrBadPacket
			case completed[k]:
			case parts == nil && op.count == 1:
				completed[k] = true
				want = op.payload
			default:
				if parts == nil {
					parts = make([][]byte, op.count)
					pending[k] = parts
				}
				if len(parts) != op.count {
					wantErr = ErrInconsistent
					break
				}
				if parts[op.index] != nil {
					break
				}
				parts[op.index] = append([]byte{}, op.payload...)
				if !containsNil(parts) {
					delete(pending, k)
					completed[k] = true
					want = bytes.Join(parts, nil)
				}
			}
			if !errors.Is(err, wantErr) || (want == nil) != (got == nil) || !bytes.Equal(got, want) {
				t.Fatalf("op %d (%+v): Add returned (%d bytes, nil=%v, %v), model says (%d bytes, nil=%v, %v)",
					i, op, len(got), got == nil, err, len(want), want == nil, wantErr)
			}
			if ra.Pending() != len(pending) {
				t.Fatalf("op %d: %d partial messages held, model has %d", i, ra.Pending(), len(pending))
			}
		}
	})
}

func containsNil(parts [][]byte) bool {
	for _, p := range parts {
		if p == nil {
			return true
		}
	}
	return false
}
