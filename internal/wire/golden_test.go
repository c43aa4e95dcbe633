package wire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/xrep"
)

// goldenCases are the frames whose wire bytes testdata/golden.txt pins. The
// file was written by Frame.Marshal and Fragment as they stood before the
// append-style encoder replaced them (commit d07ede1), so a mismatch here
// means this build no longer interoperates with nodes running that one.
type goldenCase struct {
	name  string
	frame *Frame
	mtu   int
}

func goldenCases() []goldenCase {
	noReply := sampleFrame()
	noReply.ReplyTo = xrep.PortName{}
	noReply.SrcGuardian = 3
	blob := make([]byte, 300)
	for i := range blob {
		blob[i] = byte(i * 13)
	}
	multi := &Frame{
		Dest:        xrep.PortName{Node: "srv", Guardian: 1 << 40, Port: 129},
		SrcNode:     "cli",
		MsgID:       1<<56 + 5,
		SrcGuardian: 200,
		Command:     "echo",
		Args: xrep.Seq{
			xrep.Null{}, xrep.Bool(true), xrep.Bool(false), xrep.Int(-1 << 40), xrep.Real(2.5),
			xrep.Str("héllo"), xrep.Bytes(blob),
			xrep.Seq{xrep.Int(1), xrep.Seq{}},
			xrep.Rec{Name: "pair", Fields: xrep.Seq{xrep.Str("k"), xrep.Int(7)}},
			xrep.PortName{Node: "n", Guardian: 2, Port: 3},
			xrep.Token{Issuer: 9, Body: []byte("body"), Seal: []byte{0xde, 0xad}},
		},
		ReplyTo: xrep.PortName{Node: "cli", Guardian: 200, Port: 1},
	}
	return []goldenCase{
		{"single", sampleFrame(), 0},
		{"noreply", noReply, 0},
		{"multi", multi, 128},
	}
}

// goldenLines renders a frame's encoding and its packets one hex line each.
func goldenLines(name string, frame []byte, pkts [][]byte) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s.frame %s\n", name, hex.EncodeToString(frame))
	for i, p := range pkts {
		fmt.Fprintf(&b, "%s.pkt%d %s\n", name, i, hex.EncodeToString(p))
	}
	return b.String()
}

func TestEncodingMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var wrappers, appended strings.Builder
	var frameBuf, pktBuf []byte // reused across cases, as a sender reuses them
	for _, c := range goldenCases() {
		raw, err := c.frame.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		pkts, err := Fragment(c.frame.MsgID, raw, c.mtu)
		if err != nil {
			t.Fatal(err)
		}
		wrappers.WriteString(goldenLines(c.name, raw, pkts))

		if frameBuf, err = AppendFrame(frameBuf[:0], c.frame); err != nil {
			t.Fatal(err)
		}
		chunk, count, err := Packets(len(frameBuf), c.mtu)
		if err != nil {
			t.Fatal(err)
		}
		built := make([][]byte, count)
		for i := range built {
			pktBuf = AppendPacket(pktBuf[:0], c.frame.MsgID, i, count, frameBuf[i*chunk:min((i+1)*chunk, len(frameBuf))])
			built[i] = bytes.Clone(pktBuf)
		}
		appended.WriteString(goldenLines(c.name, frameBuf, built))
	}
	if wrappers.String() != string(want) {
		t.Errorf("Marshal+Fragment output differs from testdata/golden.txt:\n%s", wrappers.String())
	}
	if appended.String() != string(want) {
		t.Errorf("AppendFrame+AppendPacket output differs from testdata/golden.txt:\n%s", appended.String())
	}
	if n := strings.Count(string(want), "multi.pkt"); n < 3 {
		t.Fatalf("the multi case has %d packets, want several", n)
	}
}

// TestAppendFrameAfterPrefix checks the checksum covers the frame alone
// when dst already holds bytes.
func TestAppendFrameAfterPrefix(t *testing.T) {
	f := sampleFrame()
	want, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendFrame([]byte("prefix"), f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[len("prefix"):], want) || string(got[:6]) != "prefix" {
		t.Fatal("AppendFrame after a prefix differs from Marshal")
	}
	pkt := AppendPacket([]byte("prefix"), 7, 0, 1, want)
	alone := AppendPacket(nil, 7, 0, 1, want)
	if !bytes.Equal(pkt[6:], alone) {
		t.Fatal("AppendPacket after a prefix differs from a packet built alone")
	}
}
