package sendprim

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/guardian"
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

var anyType = guardian.NewPortType("any_port").Msg("echo", guardian.AnyKind, guardian.AnyKind, guardian.AnyKind)

var echoedType = guardian.NewPortType("echoed_port").Msg("echoed")

// tappedEcho is a world on a tap under limits with a guardian on srv that
// answers every second echo it receives, and a driver on cli.
func tappedEcho(t *testing.T, limits xrep.Limits) (*tap, xrep.PortName, *guardian.Process) {
	t.Helper()
	clock := vtime.NewReal()
	tp := &tap{Transport: netsim.New(clock, netsim.Config{Seed: 1}), sent: make(map[transport.Addr][][]byte)}
	w := guardian.NewWorld(guardian.Config{Clock: clock, Transport: tp, Limits: limits})
	t.Cleanup(func() { w.Close() })
	w.MustRegister(&guardian.GuardianDef{
		TypeName: "echo",
		Provides: []*guardian.PortType{anyType},
		Init: func(ctx *guardian.Ctx) {
			n := 0
			guardian.NewReceiver(ctx.Ports[0]).
				When("echo", func(pr *guardian.Process, m *guardian.Message) {
					if n++; n%2 == 0 {
						_ = pr.Send(m.ReplyTo, "echoed")
					}
				}).
				Loop(ctx.Proc, nil)
		},
	})
	cr, err := w.MustAddNode("srv").Bootstrap("echo")
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := w.MustAddNode("cli").NewDriver("caller")
	if err != nil {
		t.Fatal(err)
	}
	return tp, cr.Ports[0], drv
}

// TestCallRequestIsWhatEncodeAllBuilds: Call writes its arguments once, and
// each attempt puts on the wire, byte for byte, the frame wire.AppendFrame
// writes over xrep.EncodeAll of them.
func TestCallRequestIsWhatEncodeAllBuilds(t *testing.T) {
	tp, to, drv := tappedEcho(t, xrep.DefaultLimits)
	args := []any{"payload", int64(1) << 40, []any{int64(7), "x"}}
	opts := CallOptions{Timeout: 20 * time.Millisecond, Retries: 3}
	if _, err := Call(drv, to, echoedType, opts, "echo", args...); err != nil {
		t.Fatal(err)
	}
	enc, _ := xrep.EncodeAll(args...)
	frames := tp.frames(t, "cli")
	if len(frames) != 2 {
		t.Fatalf("%d requests on the wire, want the first attempt and its retry", len(frames))
	}
	for i, got := range frames {
		f, err := wire.UnmarshalFrame(got)
		if err != nil {
			t.Fatal(err)
		}
		f.Args = enc
		if want, _ := wire.AppendFrame(nil, f); !bytes.Equal(got, want) {
			t.Errorf("attempt %d wrote\n%x\nwant\n%x", i, got, want)
		}
	}
}

// TestCallRefusesWhatLimitsRefuse: a request the world's Limits refuse
// fails with their sentinel before anything is sent.
func TestCallRefusesWhatLimitsRefuse(t *testing.T) {
	tp, to, drv := tappedEcho(t, xrep.Limits{IntBits: 24, MaxStringLen: 4, MaxDepth: 2})
	opts := CallOptions{Timeout: time.Second}
	for _, c := range []struct {
		args []any
		want error
	}{
		{[]any{int64(1 << 23)}, xrep.ErrIntRange},
		{[]any{"12345"}, xrep.ErrTooLong},
		{[]any{[]any{[]any{1}}}, xrep.ErrTooDeep},
	} {
		if _, err := Call(drv, to, echoedType, opts, "echo", c.args...); !errors.Is(err, c.want) {
			t.Errorf("Call(%v): got %v, want %v", c.args, err, c.want)
		}
	}
	if n := len(tp.frames(t, "cli")); n != 0 {
		t.Errorf("refused calls put %d frames on the wire", n)
	}
}
