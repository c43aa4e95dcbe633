package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/xrep"
)

// goldenFrames returns the frame encodings testdata/golden.txt pins.
func goldenFrames(t *testing.T) [][]byte {
	t.Helper()
	file, err := os.Open("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	var frames [][]byte
	sc := bufio.NewScanner(file)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, enc, _ := strings.Cut(sc.Text(), " ")
		if !strings.HasSuffix(name, ".frame") {
			continue
		}
		raw, err := hex.DecodeString(enc)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, raw)
	}
	if len(frames) < 3 {
		t.Fatalf("golden.txt holds %d frames", len(frames))
	}
	return frames
}

// sampleFrames is the golden frames plus n from the quick-check generator.
func sampleFrames(t *testing.T, n int) [][]byte {
	frames := goldenFrames(t)
	r := rand.New(rand.NewSource(1979))
	for i := 0; i < n; i++ {
		raw, err := genFrame(r).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, raw)
	}
	return frames
}

// split cuts raw at i and j into three segments, any of which may be empty.
func split(raw []byte, i, j int) Segments {
	return segments(raw[:i:i], raw[i:j:j], raw[j:])
}

// segments is a fragmented frame's Segments over parts, in order.
func segments(parts ...[]byte) Segments {
	s := Segments{many: make([]*[]byte, len(parts))}
	for i := range parts {
		s.many[i] = &parts[i]
	}
	return s
}

// reseal recomputes the checksum of a frame whose body was tampered with,
// so that the tampering reaches the decoder.
func reseal(raw []byte) []byte {
	body := raw[:len(raw)-4]
	return binary.BigEndian.AppendUint32(body[:len(body):len(body)], crc32.Checksum(body, crcTable))
}

// sameFrame reports whether two decoded frames are the same frame.
func sameFrame(a, b *Frame) bool {
	return a.Dest == b.Dest && a.SrcNode == b.SrcNode && a.MsgID == b.MsgID && a.SrcGuardian == b.SrcGuardian &&
		a.Command == b.Command && a.ReplyTo == b.ReplyTo && xrep.Equal(a.Args, b.Args)
}

// TestSegmentedDecodeMatchesContiguous: a frame decodes to the same frame
// from any three segments as from contiguous bytes — a varint, a string, a
// real or the checksum may straddle a boundary, and segments may be empty.
func TestSegmentedDecodeMatchesContiguous(t *testing.T) {
	for n, raw := range sampleFrames(t, 40) {
		want, err := UnmarshalFrame(raw)
		if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		for i := 0; i <= len(raw); i++ {
			for j := i; j <= len(raw); j++ {
				var got Frame
				if err := UnmarshalSegments(&got, split(raw, i, j)); err != nil {
					t.Fatalf("frame %d split at %d,%d: %v", n, i, j, err)
				}
				if !sameFrame(&got, want) {
					t.Fatalf("frame %d split at %d,%d decoded to %+v, want %+v", n, i, j, got, *want)
				}
			}
		}
	}
}

// fillCallerSlots decodes s as a delivery does: Size, then Fill into
// exactly the slots Size asked for. It fails t if a slot is left unused or
// the argument list could reach past its own slots.
func fillCallerSlots(t *testing.T, s Segments) (*Frame, error) {
	t.Helper()
	var r FrameReader
	k, err := r.Size(s)
	if err != nil {
		return nil, err
	}
	slots := make([]xrep.Value, k)
	f := new(Frame)
	r.Fill(f, slots)
	for i, v := range slots {
		if v == nil {
			t.Fatalf("slot %d of %d was left unused", i, k)
		}
	}
	if cap(f.Args) != len(f.Args) {
		t.Fatalf("the arguments have capacity %d for %d slots", cap(f.Args), len(f.Args))
	}
	return f, nil
}

// TestCallerSlotsMatchUnmarshalFrame: every golden frame and forty
// generated ones, sized and filled into exactly the slots Size asked for —
// as a delivery decodes into the slots it allocates with its Message — are
// the frames UnmarshalFrame decodes, from contiguous bytes and from three
// segments; and sizing a frame it accepts allocates nothing either.
func TestCallerSlotsMatchUnmarshalFrame(t *testing.T) {
	for n, raw := range sampleFrames(t, 40) {
		want, err := UnmarshalFrame(raw)
		if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		for _, segs := range []Segments{Contiguous(raw), split(raw, len(raw)/3, 2*len(raw)/3)} {
			got, err := fillCallerSlots(t, segs)
			if err != nil {
				t.Fatalf("frame %d: %v", n, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("frame %d into caller slots decoded to %+v, want %+v", n, *got, *want)
			}
			var r FrameReader
			if allocs := testing.AllocsPerRun(5, func() { _, _ = r.Size(segs) }); allocs != 0 {
				t.Fatalf("sizing frame %d allocates %v times, want 0", n, allocs)
			}
		}
	}
}

// TestSegmentedDecodeRejectsAlike: every truncation of a frame, and every
// frame with one body byte changed and the checksum recomputed, gets the
// same verdict — the same sentinel, or the same frame — from segments as
// from contiguous bytes.
func TestSegmentedDecodeRejectsAlike(t *testing.T) {
	check := func(what string, raw []byte) (rejected bool) {
		want, wantErr := UnmarshalFrame(raw)
		// Every offset of a short frame; the long golden one is sampled.
		for i := 0; i <= len(raw); i += 1 + len(raw)/128 {
			var got Frame
			err := UnmarshalSegments(&got, split(raw, i, min(i+1, len(raw))))
			if err != wantErr {
				t.Fatalf("%s split at %d: %v, contiguous: %v", what, i, err, wantErr)
			}
			if err == nil && !sameFrame(&got, want) {
				t.Fatalf("%s split at %d decoded to %+v, want %+v", what, i, got, want)
			}
		}
		return wantErr != nil
	}
	classes := make(map[error]int)
	for n, raw := range sampleFrames(t, 12) {
		for k := 0; k < len(raw); k++ {
			if !check("frame "+strconv.Itoa(n)+" cut to "+strconv.Itoa(k), raw[:k:k]) {
				t.Fatalf("frame %d cut to %d bytes was accepted", n, k)
			}
			if k < 4 {
				continue
			}
			// Truncated inside the body, with a checksum that vouches for it.
			cut := reseal(bytes.Clone(raw[:k]))
			check("frame "+strconv.Itoa(n)+" resealed at "+strconv.Itoa(k), cut)
			_, err := UnmarshalFrame(cut)
			classes[err]++
		}
		for k := 0; k < len(raw)-4; k++ {
			for _, delta := range []byte{1, 0x80} {
				mut := bytes.Clone(raw)
				mut[k] += delta
				if !check("frame "+strconv.Itoa(n)+" bit-flipped at "+strconv.Itoa(k), mut) {
					t.Fatalf("frame %d with byte %d changed passed its checksum", n, k)
				}
				mut = reseal(mut)
				check("frame "+strconv.Itoa(n)+" changed at "+strconv.Itoa(k), mut)
				_, err := UnmarshalFrame(mut)
				classes[err]++
			}
		}
	}
	for _, class := range []error{ErrTruncated, ErrOversize, ErrBadTag, ErrBadMagic, ErrBadVersion, ErrFrameField, ErrTrailing, ErrFrameShort, nil} {
		if classes[class] == 0 {
			t.Errorf("no tampered frame was answered with %v", class)
		}
	}
}

// fuzzSeeds returns the checked-in seed inputs of a fuzz target by name.
func fuzzSeeds(t *testing.T, target string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no seeds for %s: %v", target, err)
	}
	seeds := make(map[string][]byte)
	for _, p := range paths {
		text, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(<quoted>)\n"
		_, lit, _ := strings.Cut(string(text), "\n")
		lit = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lit), "[]byte("), ")")
		s, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		seeds[filepath.Base(p)] = []byte(s)
	}
	return seeds
}

// TestRejectingAllocatesNothing: the sizing pass is the whole validation
// and returns bare sentinels, so a frame that is refused — for its
// checksum, or past it for its shape or its lengths — costs no allocation,
// whether FrameReader.Size refuses it alone or on behalf of a decoder
// entry point.
func TestRejectingAllocatesNothing(t *testing.T) {
	rejected := 0
	for name, seed := range fuzzSeeds(t, "FuzzUnmarshalFrame") {
		if _, err := UnmarshalFrame(seed); err == nil {
			continue
		}
		rejected++
		if n := testing.AllocsPerRun(20, func() { _, _ = UnmarshalFrame(seed) }); n != 0 {
			t.Errorf("rejecting seed %s allocates %v times, want 0", name, n)
		}
		var r FrameReader
		if n := testing.AllocsPerRun(20, func() { _, _ = r.Size(Contiguous(seed)) }); n != 0 {
			t.Errorf("sizing seed %s allocates %v times, want 0", name, n)
		}
		var f Frame
		_ = UnmarshalSegments(&f, Contiguous(seed))
		if !f.Dest.IsZero() || f.Args != nil {
			t.Errorf("rejecting seed %s wrote to the frame: %+v", name, f)
		}
		// The same bytes as three fragments.
		segs := split(seed, len(seed)/3, 2*len(seed)/3)
		if n := testing.AllocsPerRun(20, func() { _ = UnmarshalSegments(&f, segs) }); n != 0 {
			t.Errorf("rejecting seed %s in segments allocates %v times, want 0", name, n)
		}
		if n := testing.AllocsPerRun(20, func() { _, _ = r.Size(segs) }); n != 0 {
			t.Errorf("sizing seed %s in segments allocates %v times, want 0", name, n)
		}
	}
	if rejected < 8 {
		t.Fatalf("only %d seeds were rejected", rejected)
	}
	deep := bytes.Repeat([]byte{tagSeq, 1}, maxWireDepth+2)
	if n := testing.AllocsPerRun(20, func() { _, _ = UnmarshalValue(deep) }); n != 0 {
		t.Errorf("rejecting an over-deep value allocates %v times, want 0", n)
	}
}

// pairList is call_bulk's argument: n [key, amount] pairs.
func pairList(n int) xrep.Seq {
	list := make(xrep.Seq, n)
	for i := range list {
		list[i] = xrep.Seq{xrep.Str("account-" + strconv.Itoa(100000+i)), xrep.Int(1000 + i)}
	}
	return list
}

// TestBulkDecodeAllocCeiling pins the slab: decoding a 2,048-pair list
// costs the three interface boxes each pair cannot avoid (its sequence, its
// string, its integer) and a constant — not a slice and a string per pair.
func TestBulkDecodeAllocCeiling(t *testing.T) {
	const pairs = 2048
	f := sampleFrame()
	f.Args = xrep.Seq{pairList(pairs)}
	raw, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := Fragment(f.MsgID, raw, 16<<10)
	if err != nil || len(pkts) < 3 {
		t.Fatalf("%d packets, %v", len(pkts), err)
	}
	parts := make([][]byte, len(pkts))
	for i, p := range pkts {
		pp, err := parsePacket(p)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = pp.payload
	}
	var got Frame
	segs := segments(parts...)
	n := testing.AllocsPerRun(10, func() {
		if err := UnmarshalSegments(&got, segs); err != nil {
			t.Fatal(err)
		}
	})
	if !xrep.Equal(got.Args, f.Args) {
		t.Fatal("the list did not survive")
	}
	if n > 3*pairs+8 {
		t.Errorf("decoding %d pairs allocates %v times, want at most %d", pairs, n, 3*pairs+8)
	}
	t.Logf("%d pairs from %d fragments: %v allocations", pairs, len(parts), n)
}

// TestAppendToDecodedSeqLeavesSiblings: every sequence of a message is a
// sub-slice of one slab, cut so that it has no spare capacity — appending
// to one copies it and cannot write into the sequence carved after it.
func TestAppendToDecodedSeqLeavesSiblings(t *testing.T) {
	f := sampleFrame()
	f.Args = xrep.Seq{
		xrep.Seq{xrep.Int(1), xrep.Int(2)},
		xrep.Rec{Name: "r", Fields: xrep.Seq{xrep.Str("first field")}},
		xrep.Seq{},
		xrep.Seq{xrep.Str("last")},
	}
	raw, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	intruder := xrep.Str("appended")
	for i, a := range got.Args {
		var seq xrep.Seq
		switch x := a.(type) {
		case xrep.Seq:
			seq = x
		case xrep.Rec:
			seq = x.Fields
		}
		if cap(seq) != len(seq) {
			t.Errorf("argument %d has %d spare slots", i, cap(seq)-len(seq))
		}
		_ = append(seq, intruder, intruder, intruder)
	}
	if cap(got.Args) != len(got.Args) {
		t.Errorf("the argument list has %d spare slots", cap(got.Args)-len(got.Args))
	}
	_ = append(got.Args, intruder)
	if !xrep.Equal(got.Args, f.Args) {
		t.Fatalf("appending to decoded sequences changed the message: %v", got.Args)
	}
}

// TestEmptyListDecodesToNil: an empty sequence, an argument list or a
// record's fields, decodes to a nil Seq, which boxes into a Value without
// an allocation. It re-encodes to the bytes it came from, and an append to
// it makes a slice of its own.
func TestEmptyListDecodesToNil(t *testing.T) {
	f := sampleFrame()
	f.Args = xrep.Seq{xrep.Seq{}, xrep.Rec{Name: "r", Fields: xrep.Seq{}}, xrep.Seq{xrep.Seq{}}}
	bare := sampleFrame()
	bare.Args = xrep.Seq{}
	for _, f := range []*Frame{f, bare} {
		raw, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		var empties []xrep.Seq
		if len(f.Args) == 0 {
			empties = append(empties, got.Args)
		} else {
			empties = append(empties, got.Args[0].(xrep.Seq), got.Args[1].(xrep.Rec).Fields, got.Args[2].(xrep.Seq)[0].(xrep.Seq))
		}
		for i, e := range empties {
			if e != nil {
				t.Errorf("empty list %d decoded to a non-nil %#v", i, e)
			}
			if grown := append(e, xrep.Str("appended")); len(grown) != 1 || len(e) != 0 {
				t.Errorf("empty list %d: an append gave %v and left %v", i, grown, e)
			}
		}
		again, err := got.Marshal()
		if err != nil || !bytes.Equal(again, raw) {
			t.Fatalf("%v: re-encoded to %x (%v), want %x", f.Args, again, err, raw)
		}
	}
}

// TestRetainedValuesSurviveLaterMessages: a Str and an inner Seq kept from
// one message are unchanged after the next thousand messages have come
// through the same reassembler from one reused send buffer. Every packet is
// lent as a transport lends it — the one receive buffer, overwritten the
// moment the packet has been handled — so values must be copied out of
// packets into a slab nothing else writes to, and a fragment must be copied
// by the reassembler, not kept by reference.
func TestRetainedValuesSurviveLaterMessages(t *testing.T) {
	for _, mtu := range []int{0, 96} {
		ra := NewReassembler()
		var frameBuf, pktBuf []byte // one sender's scratch, reused for every message
		var lent []byte             // one receiver's buffer, reused for every packet
		scribble := func(b []byte, v byte) {
			for j := range b {
				b[j] = v
			}
		}
		receive := func(f *Frame) *Frame {
			t.Helper()
			var err error
			if frameBuf, err = AppendFrame(frameBuf[:0], f); err != nil {
				t.Fatal(err)
			}
			chunk, count, err := Packets(len(frameBuf), mtu)
			if err != nil {
				t.Fatal(err)
			}
			var segs Segments
			for i := 0; i < count; i++ {
				pktBuf = AppendPacket(pktBuf[:0], f.MsgID, i, count, frameBuf[i*chunk:min((i+1)*chunk, len(frameBuf))])
				lent = append(lent[:0], pktBuf...)
				scribble(pktBuf, 0xEE)
				if segs, err = ra.Collect("s", lent, time.Unix(0, 0)); err != nil {
					t.Fatal(err)
				}
				if segs.IsZero() {
					scribble(lent, 0xDD) // the handler has returned
				}
			}
			got := new(Frame)
			if err := UnmarshalSegments(got, segs); err != nil {
				t.Fatalf("mtu %d: %v", mtu, err)
			}
			ra.Release(segs)
			scribble(lent, 0xDD)
			scribble(frameBuf, 0xCC)
			return got
		}

		first := aliasFrame()
		first.Args = append(first.Args, xrep.Seq{xrep.Str("inner string"), xrep.Int(1 << 40), xrep.Seq{xrep.Str("deeper")}})
		got := receive(first)
		keptStr := got.Args[0].(xrep.Str)
		keptSeq := got.Args[len(got.Args)-1].(xrep.Seq)
		keptCmd, keptNode := got.Command, got.ReplyTo.Node
		for i := 1; i <= 1000; i++ {
			next := aliasFrame()
			next.MsgID = first.MsgID + uint64(i)
			next.Command = "noise-" + strconv.Itoa(i)
			next.Args[0] = xrep.Str(strings.Repeat("x", 17))
			next.Args = append(next.Args, xrep.Seq{xrep.Str("other string"), xrep.Int(i), xrep.Seq{xrep.Str("zzzzzz")}})
			receive(next)
		}
		want := first.Args[len(first.Args)-1]
		if keptStr != "a string argument" || !xrep.Equal(keptSeq, want) || keptCmd != first.Command || keptNode != first.ReplyTo.Node {
			t.Fatalf("mtu %d: retained values changed: %q %v %q %q", mtu, keptStr, keptSeq, keptCmd, keptNode)
		}
	}
}
