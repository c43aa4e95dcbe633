package guardian

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/vtime"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// tap is a simulated network that keeps a copy of every packet, by sender.
type tap struct {
	transport.Transport
	mu   sync.Mutex
	sent map[transport.Addr][][]byte
}

func (t *tap) Send(from, to transport.Addr, p []byte) error {
	t.mu.Lock()
	t.sent[from] = append(t.sent[from], bytes.Clone(p))
	t.mu.Unlock()
	return t.Transport.Send(from, to, p)
}

// frames returns, and forgets, the frames node from has sent.
func (t *tap) frames(tb testing.TB, from string) [][]byte {
	tb.Helper()
	t.mu.Lock()
	pkts := t.sent[transport.Addr(from)]
	delete(t.sent, transport.Addr(from))
	t.mu.Unlock()
	var out [][]byte
	for _, p := range pkts {
		f, err := wire.NewReassembler().Add(from, p, time.Now())
		if err != nil || f == nil {
			tb.Fatalf("packet from %s is not one whole frame: %v", from, err)
		}
		out = append(out, f)
	}
	return out
}

// tappedWorld is a two-node world on a tap under limits: a driver on a,
// and on b a port to that takes every message of pt.
func tappedWorld(t *testing.T, limits xrep.Limits, pt *PortType) (tp *tap, a *Process, to *Port) {
	t.Helper()
	clock := vtime.NewReal()
	tp = &tap{Transport: netsim.New(clock, netsim.Config{Seed: 1}), sent: make(map[transport.Addr][][]byte)}
	w := NewWorld(Config{Clock: clock, Transport: tp, Limits: limits})
	t.Cleanup(func() { w.Close() })
	_, a, err := w.MustAddNode("a").NewDriver("da")
	if err != nil {
		t.Fatal(err)
	}
	gb, _, err := w.MustAddNode("b").NewDriver("db")
	if err != nil {
		t.Fatal(err)
	}
	return tp, a, gb.MustNewPort(pt, 64)
}

// parentFrame is the frame wire.AppendFrame writes for got's header and
// args: what a send built from argument values puts on the wire.
func parentFrame(tb testing.TB, got []byte, args xrep.Seq) []byte {
	tb.Helper()
	f, err := wire.UnmarshalFrame(got)
	if err != nil {
		tb.Fatal(err)
	}
	f.Args = args
	want, err := wire.AppendFrame(nil, f)
	if err != nil {
		tb.Fatal(err)
	}
	return want
}

// point is a transmittable abstract type.
type point struct{ x, y int64 }

func (point) XTypeName() string { return "test/point" }

func (p point) EncodeX() (xrep.Value, error) { return xrep.Seq{xrep.Int(p.x), xrep.Int(p.y)}, nil }

// everyKind is one argument of every kind xrep.Encode maps.
var everyKind = []any{
	nil, true, false, 7, int8(-8), int16(300), int32(-70000), int64(1 << 40),
	uint8(200), uint16(60000), uint32(1 << 31), float32(1.5), 2.25, "str", "",
	[]byte{1, 2, 3}, []any{int64(1), "x", []any{}, nil}, xrep.Seq{xrep.Str("v")},
	xrep.Int(-3), xrep.PortName{Node: "n", Guardian: 2, Port: 3},
	xrep.Token{Issuer: 4, Body: []byte("b"), Seal: []byte("s")}, point{5, 6},
}

// TestSendFrontEndsWriteWhatEncodeAllBuilds: every send front end puts on
// the wire, byte for byte, the frame wire.AppendFrame writes over
// xrep.EncodeAll of the same arguments, for every kind of argument.
func TestSendFrontEndsWriteWhatEncodeAllBuilds(t *testing.T) {
	kinds := make([]xrep.Kind, len(everyKind))
	for i := range kinds {
		kinds[i] = AnyKind
	}
	pt := NewPortType("typed").Msg("all", kinds...)
	tp, a, to := tappedWorld(t, xrep.DefaultLimits, pt)
	want, err := xrep.EncodeAll(everyKind...)
	if err != nil {
		t.Fatal(err)
	}
	reply := xrep.PortName{Node: "a", Guardian: 1, Port: 9}
	for name, send := range map[string]func() error{
		"Send":               func() error { return a.Send(to.Name(), "all", everyKind...) },
		"SendReplyTo":        func() error { return a.SendReplyTo(to.Name(), reply, "all", everyKind...) },
		"SendChecked":        func() error { return a.SendChecked(pt, to.Name(), "all", everyKind...) },
		"SendCheckedReplyTo": func() error { return a.SendCheckedReplyTo(pt, to.Name(), reply, "all", everyKind...) },
		"SendSeq":            func() error { return a.SendSeq(to.Name(), reply, "all", want) },
	} {
		if err := send(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		frames := tp.frames(t, "a")
		if len(frames) != 1 {
			t.Fatalf("%s sent %d frames, want 1", name, len(frames))
		}
		if exp := parentFrame(t, frames[0], want); !bytes.Equal(frames[0], exp) {
			t.Errorf("%s wrote\n%x\nwant\n%x", name, frames[0], exp)
		}
	}
	// The failure reply the system writes for a message to a missing port.
	gone := xrep.PortName{Node: "b", Guardian: to.Name().Guardian, Port: 999}
	if err := a.SendReplyTo(gone, reply, "all"); err != nil {
		t.Fatal(err)
	}
	tp.frames(t, "a")
	deadline := time.Now().Add(5 * time.Second)
	var frames [][]byte
	for len(frames) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		frames = tp.frames(t, "b")
	}
	if len(frames) != 1 {
		t.Fatalf("the failure reply: %d frames", len(frames))
	}
	if exp := parentFrame(t, frames[0], xrep.Seq{xrep.Str("target port doesn't exist")}); !bytes.Equal(frames[0], exp) {
		t.Errorf("the failure reply wrote\n%x\nwant\n%x", frames[0], exp)
	}
}

// TestSendRefusesWhatLimitsRefuse: each refusal a send built from values
// made — an integer wider than the system's, an over-long string or
// sequence, a too-deep or nil value, a value of no transmittable type —
// is made by the written send with the same sentinel, and nothing leaves
// the node.
func TestSendRefusesWhatLimitsRefuse(t *testing.T) {
	small := xrep.Limits{IntBits: 24, MaxStringLen: 4, MaxSeqLen: 3, MaxDepth: 3}
	tp, a, to := tappedWorld(t, small, NewPortType("m").Msg("m", AnyKind, AnyKind, AnyKind))
	deep := []any{[]any{[]any{[]any{int64(1)}}}} // the 1 sits at depth 4
	for _, c := range []struct {
		name string
		send func() error
		want error
	}{
		{"int over 24 bits", func() error { return a.Send(to.Name(), "m", int64(1<<23)) }, xrep.ErrIntRange},
		{"nested int over 24 bits", func() error { return a.Send(to.Name(), "m", []any{int(-1 << 24)}) }, xrep.ErrIntRange},
		{"int value over 24 bits", func() error { return a.Send(to.Name(), "m", xrep.Int(1<<30)) }, xrep.ErrIntRange},
		{"long string", func() error { return a.Send(to.Name(), "m", "12345") }, xrep.ErrTooLong},
		{"long bytes", func() error { return a.Send(to.Name(), "m", []byte("12345")) }, xrep.ErrTooLong},
		{"long arg list", func() error { return a.Send(to.Name(), "m", 1, 2, 3, 4) }, xrep.ErrTooLong},
		{"long nested seq", func() error { return a.Send(to.Name(), "m", []any{1, 2, 3, 4}) }, xrep.ErrTooLong},
		{"too deep", func() error { return a.Send(to.Name(), "m", deep...) }, xrep.ErrTooDeep},
		{"too deep value", func() error { return a.Send(to.Name(), "m", xrep.Seq{xrep.Seq{xrep.Seq{xrep.Int(1)}}}) }, xrep.ErrTooDeep},
		{"nil in a value", func() error { return a.SendSeq(to.Name(), xrep.PortName{}, "m", xrep.Seq{nil}) }, xrep.ErrNilValue},
		{"long seq value", func() error { return a.SendSeq(to.Name(), xrep.PortName{}, "m", xrep.Seq{xrep.Str("12345")}) }, xrep.ErrTooLong},
	} {
		if err := c.send(); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
	if err := a.Send(to.Name(), "m", uint64(1)); err == nil {
		t.Error("a uint64 argument was sent")
	}
	if n := len(tp.frames(t, "a")); n != 0 {
		t.Errorf("refused sends put %d frames on the wire", n)
	}
	// At the bounds, each is sent.
	if err := a.Send(to.Name(), "m", int64(1<<23-1), "1234", []any{[]any{int64(1)}}); err != nil {
		t.Errorf("a send at the bounds: %v", err)
	}
	if n := len(tp.frames(t, "a")); n != 1 {
		t.Errorf("a send at the bounds put %d frames on the wire", n)
	}
}
