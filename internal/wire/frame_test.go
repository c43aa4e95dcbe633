package wire

import (
	"testing"
	"time"

	"repro/internal/xrep"
)

func sampleFrame() *Frame {
	return &Frame{
		Dest:    xrep.PortName{Node: "boston", Guardian: 4, Port: 1},
		SrcNode: "chicago",
		MsgID:   77,
		Command: "reserve",
		Args: xrep.Seq{
			xrep.Int(22),         // flight_no
			xrep.Str("p-100432"), // passenger_id
			xrep.Str("1979-12-10"),
		},
		ReplyTo: xrep.PortName{Node: "chicago", Guardian: 9, Port: 2},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := sampleFrame()
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dest != f.Dest || got.SrcNode != f.SrcNode || got.MsgID != f.MsgID ||
		got.Command != f.Command || got.ReplyTo != f.ReplyTo {
		t.Fatalf("frame fields changed: %+v vs %+v", got, f)
	}
	if !xrep.Equal(got.Args, f.Args) {
		t.Fatalf("args changed: %v vs %v", got.Args, f.Args)
	}
}

func TestFrameWithoutReply(t *testing.T) {
	f := sampleFrame()
	f.ReplyTo = xrep.PortName{}
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ReplyTo.IsZero() {
		t.Fatalf("replyless frame decoded with ReplyTo %v", got.ReplyTo)
	}
}

func TestFrameChecksumDetectsEveryBitFlip(t *testing.T) {
	f := sampleFrame()
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < len(b)*8; bit++ {
		mut := make([]byte, len(b))
		copy(mut, b)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, err := UnmarshalFrame(mut); err == nil {
			t.Fatalf("bit flip at %d went undetected", bit)
		}
	}
}

func TestFrameRejectsShortInput(t *testing.T) {
	for n := 0; n < 10; n++ {
		if _, err := UnmarshalFrame(make([]byte, n)); err == nil {
			t.Fatalf("%d-byte frame accepted", n)
		}
	}
}

func TestFrameEmptyArgs(t *testing.T) {
	f := &Frame{
		Dest:    xrep.PortName{Node: "n", Guardian: 1, Port: 1},
		SrcNode: "m",
		Command: "done",
		Args:    xrep.Seq{},
	}
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Command != "done" || len(got.Args) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestFragmentSinglePacketWhenSmall(t *testing.T) {
	pkts, err := Fragment(1, []byte("small"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 1 {
		t.Fatalf("got %d packets, want 1", len(pkts))
	}
}

func TestFragmentReassembleRoundTrip(t *testing.T) {
	frame := make([]byte, 10_000)
	for i := range frame {
		frame[i] = byte(i * 7)
	}
	pkts, err := Fragment(42, frame, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) < 20 {
		t.Fatalf("10KB at 512 MTU produced only %d packets", len(pkts))
	}
	for _, p := range pkts {
		if len(p) > 512 {
			t.Fatalf("packet of %d bytes exceeds MTU 512", len(p))
		}
	}
	ra := NewReassembler()
	now := time.Unix(0, 0)
	var out []byte
	for i, p := range pkts {
		got, err := ra.Add("src", p, now)
		if err != nil {
			t.Fatalf("Add packet %d: %v", i, err)
		}
		if i < len(pkts)-1 && got != nil {
			t.Fatalf("message completed early at packet %d", i)
		}
		if got != nil {
			out = got
		}
	}
	if len(out) != len(frame) {
		t.Fatalf("reassembled %d bytes, want %d", len(out), len(frame))
	}
	for i := range out {
		if out[i] != frame[i] {
			t.Fatalf("byte %d: %d != %d", i, out[i], frame[i])
		}
	}
}

func TestReassembleOutOfOrder(t *testing.T) {
	frame := make([]byte, 3000)
	for i := range frame {
		frame[i] = byte(i)
	}
	pkts, err := Fragment(7, frame, 400)
	if err != nil {
		t.Fatal(err)
	}
	// Deliver in reverse order.
	ra := NewReassembler()
	now := time.Unix(0, 0)
	var out []byte
	for i := len(pkts) - 1; i >= 0; i-- {
		got, err := ra.Add("s", pkts[i], now)
		if err != nil {
			t.Fatal(err)
		}
		if got != nil {
			out = got
		}
	}
	if len(out) != len(frame) {
		t.Fatalf("reverse-order reassembly gave %d bytes, want %d", len(out), len(frame))
	}
	for i := range out {
		if out[i] != frame[i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
}

func TestReassembleIgnoresDuplicates(t *testing.T) {
	pkts, err := Fragment(9, make([]byte, 1500), 600)
	if err != nil {
		t.Fatal(err)
	}
	ra := NewReassembler()
	now := time.Unix(0, 0)
	if _, err := ra.Add("s", pkts[0], now); err != nil {
		t.Fatal(err)
	}
	if got, err := ra.Add("s", pkts[0], now); err != nil || got != nil {
		t.Fatalf("duplicate fragment: got %v, err %v", got, err)
	}
	for _, p := range pkts[1:] {
		if _, err := ra.Add("s", p, now); err != nil {
			t.Fatal(err)
		}
	}
	// Late duplicate after completion must not resurrect the message.
	if got, err := ra.Add("s", pkts[1], now); err != nil || got != nil {
		t.Fatalf("post-completion duplicate: got %v, err %v", got, err)
	}
}

func TestReassembleSeparatesSenders(t *testing.T) {
	// Same msgID from different senders must not be merged.
	pktsA, _ := Fragment(5, []byte("aaaaaaaaaa"), 0)
	pktsB, _ := Fragment(5, []byte("bbbbbbbbbb"), 0)
	ra := NewReassembler()
	now := time.Unix(0, 0)
	gotA, err := ra.Add("A", pktsA[0], now)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := ra.Add("B", pktsB[0], now)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotA) != "aaaaaaaaaa" || string(gotB) != "bbbbbbbbbb" {
		t.Fatalf("senders merged: %q / %q", gotA, gotB)
	}
}

func TestReassemblerRejectsCorruptPacket(t *testing.T) {
	pkts, _ := Fragment(3, []byte("payload payload"), 0)
	pkt := pkts[0]
	pkt[len(pkt)/2] ^= 0x10
	ra := NewReassembler()
	if _, err := ra.Add("s", pkt, time.Unix(0, 0)); err == nil {
		t.Fatal("corrupt packet accepted")
	}
}

func TestReassemblerRejectsInconsistentCount(t *testing.T) {
	a, _ := Fragment(4, make([]byte, 1000), 400)
	b, _ := Fragment(4, make([]byte, 5000), 400)
	ra := NewReassembler()
	now := time.Unix(0, 0)
	if _, err := ra.Add("s", a[0], now); err != nil {
		t.Fatal(err)
	}
	if _, err := ra.Add("s", b[3], now); err == nil {
		t.Fatal("inconsistent fragment count accepted")
	}
}

func TestReassemblerSweepEvictsStale(t *testing.T) {
	pkts, _ := Fragment(8, make([]byte, 2000), 600)
	ra := NewReassembler()
	t0 := time.Unix(100, 0)
	if _, err := ra.Add("s", pkts[0], t0); err != nil {
		t.Fatal(err)
	}
	if ra.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", ra.Pending())
	}
	if n := ra.Sweep(t0.Add(time.Second), 10*time.Second); n != 0 {
		t.Fatalf("early sweep evicted %d", n)
	}
	if n := ra.Sweep(t0.Add(time.Minute), 10*time.Second); n != 1 {
		t.Fatalf("late sweep evicted %d, want 1", n)
	}
	if ra.Pending() != 0 {
		t.Fatalf("Pending = %d after sweep, want 0", ra.Pending())
	}
}

func TestFragmentRejectsTinyMTU(t *testing.T) {
	if _, err := Fragment(1, []byte("x"), 10); err == nil {
		t.Fatal("MTU below packet overhead accepted")
	}
}

func TestFragmentEndToEndWithFrame(t *testing.T) {
	f := sampleFrame()
	f.Args = append(f.Args, xrep.Bytes(make([]byte, 5000)))
	raw, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := Fragment(f.MsgID, raw, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ra := NewReassembler()
	now := time.Unix(0, 0)
	var frameBytes []byte
	for _, p := range pkts {
		got, err := ra.Add(f.SrcNode, p, now)
		if err != nil {
			t.Fatal(err)
		}
		if got != nil {
			frameBytes = got
		}
	}
	got, err := UnmarshalFrame(frameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if got.Command != "reserve" || !xrep.Equal(got.Args, f.Args) {
		t.Fatal("frame did not survive fragmentation round trip")
	}
}

// TestUnmarshalFrameIntoOverwritesTheFrame: decoding into a Frame that
// already holds another message leaves nothing of it behind.
func TestUnmarshalFrameIntoOverwritesTheFrame(t *testing.T) {
	withReply, err := sampleFrame().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bare := &Frame{Dest: xrep.PortName{Node: "n", Guardian: 1, Port: 1}, SrcNode: "s", MsgID: 1, Command: "c"}
	bareRaw, err := bare.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := UnmarshalSegments(&f, Contiguous(withReply)); err != nil {
		t.Fatal(err)
	}
	if err := UnmarshalSegments(&f, Contiguous(bareRaw)); err != nil {
		t.Fatal(err)
	}
	if f.Dest != bare.Dest || f.SrcNode != "s" || f.Command != "c" || !f.ReplyTo.IsZero() || len(f.Args) != 0 || f.SrcGuardian != 0 {
		t.Fatalf("second decode left %+v", f)
	}
}
