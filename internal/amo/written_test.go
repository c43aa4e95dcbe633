package amo

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
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

// wantFrame checks that got is, byte for byte, the frame wire.AppendFrame
// writes for got's header over args: what a sender that built its envelope
// of values put on the wire.
func wantFrame(tb testing.TB, what string, got []byte, args xrep.Seq) {
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
	if !bytes.Equal(got, want) {
		tb.Errorf("%s wrote\n%x\nwant\n%x", what, got, want)
	}
}

// echoWorld is a world on a tap under limits: on node srv, servers
// processes share one Dedup on port srv, answering "add n" with the running
// sum, "echo" with its arguments, "none" with nothing, and a request for
// "move" with a moved redirect, sent before the filter as a shard's
// ownership check sends it; cli is a node for callers.
func echoWorld(t *testing.T, limits xrep.Limits, servers int) (tp *tap, cli, srvNode *guardian.Node, srv xrep.PortName) {
	t.Helper()
	clock := vtime.NewReal()
	tp = &tap{Transport: netsim.New(clock, netsim.Config{Seed: 1}), sent: make(map[transport.Addr][][]byte)}
	w := guardian.NewWorld(guardian.Config{Clock: clock, Transport: tp, Limits: limits})
	t.Cleanup(func() { w.Close() })
	var sum int64
	var mu sync.Mutex
	handle := func(pr *guardian.Process, req Request) (string, xrep.Seq, bool) {
		switch req.Command {
		case "add":
			mu.Lock()
			defer mu.Unlock()
			sum += int64(req.Args[0].(xrep.Int))
			return "sum", xrep.Seq{xrep.Int(sum)}, false
		case "echo":
			return "echo", req.Args, false
		}
		return "ok", nil, false
	}
	moved := func(pr *guardian.Process, m *guardian.Message) bool {
		if m.Str(3) != "move" {
			return false
		}
		SendMoved(pr, m, xrep.PortName{Node: "elsewhere", Guardian: 1, Port: 2}, 7)
		return true
	}
	w.MustRegister(&guardian.GuardianDef{
		TypeName: "echo",
		Provides: []*guardian.PortType{ReqType},
		Init: func(ctx *guardian.Ctx) {
			d := NewDedup(DedupOptions{Metrics: &Metrics{}})
			for i := 0; i < servers; i++ {
				ctx.G.Spawn("serve", func(pr *guardian.Process) {
					guardian.NewReceiver(ctx.Ports[0]).
						Intercept(moved, ReqCommand).
						Intercept(d.Hook(handle), ReqCommand).
						Loop(pr, nil)
				})
			}
		},
	})
	srvNode = w.MustAddNode("srv")
	cr, err := srvNode.Bootstrap("echo")
	if err != nil {
		t.Fatal(err)
	}
	return tp, w.MustAddNode("cli"), srvNode, cr.Ports[0]
}

func newTestCaller(t *testing.T, cli *guardian.Node, name string) *Caller {
	t.Helper()
	_, drv, err := cli.NewDriver(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCaller(drv, CallerOptions{Timeout: 5 * time.Second, Metrics: &Metrics{}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEnvelopesAreWhatEncodeAllBuilds: the request envelope a Caller writes
// and the reply envelopes the server writes — a plain reply, one with no
// arguments, a cached replay and a moved redirect — are byte for byte the
// frames built from values: [client, seq, ack, command, EncodeAll(args…)]
// and [seq, outcome, args].
func TestEnvelopesAreWhatEncodeAllBuilds(t *testing.T) {
	tp, cli, _, srv := echoWorld(t, xrep.DefaultLimits, 1)
	c := newTestCaller(t, cli, "caller")
	args := []any{int64(5), "memo", []any{int64(-1), "x"}, xrep.Str("v"), true}
	if _, err := c.Call(srv, "add", args...); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(srv, "none"); err != nil {
		t.Fatal(err)
	}
	enc, _ := xrep.EncodeAll(args...)
	reqs, reps := tp.frames(t, "cli"), tp.frames(t, "srv")
	if len(reqs) != 2 || len(reps) != 2 {
		t.Fatalf("%d requests and %d replies on the wire, want 2 and 2", len(reqs), len(reps))
	}
	client := xrep.Str(c.Client())
	wantFrame(t, "the request", reqs[0], xrep.Seq{client, xrep.Int(1), xrep.Int(0), xrep.Str("add"), enc})
	wantFrame(t, "a request with no arguments", reqs[1], xrep.Seq{client, xrep.Int(2), xrep.Int(1), xrep.Str("none"), xrep.Seq{}})
	wantFrame(t, "the reply", reps[0], xrep.Seq{xrep.Int(1), xrep.Str("sum"), xrep.Seq{xrep.Int(5)}})
	wantFrame(t, "a reply with no arguments", reps[1], xrep.Seq{xrep.Int(2), xrep.Str("ok"), xrep.Seq{}})

	// A request sent twice is answered twice, the second time from the
	// cache; a moved redirect is answered before the filter.
	_, drv, err := cli.NewDriver("raw")
	if err != nil {
		t.Fatal(err)
	}
	reply := drv.Guardian().MustNewPort(ReplyType, 8)
	for _, cmd := range []string{"add", "add", "move"} {
		env := xrep.Seq{xrep.Str("raw"), xrep.Int(9), xrep.Int(0), xrep.Str(cmd), xrep.Seq{xrep.Int(2)}}
		if err := drv.SendSeq(srv, reply.Name(), ReqCommand, env); err != nil {
			t.Fatal(err)
		}
		if _, st := drv.Receive(5*time.Second, reply); st != guardian.RecvOK {
			t.Fatalf("%s: %v", cmd, st)
		}
	}
	reps = tp.frames(t, "srv")
	if len(reps) != 3 {
		t.Fatalf("%d replies on the wire, want 3", len(reps))
	}
	sum := xrep.Seq{xrep.Int(9), xrep.Str("sum"), xrep.Seq{xrep.Int(7)}}
	wantFrame(t, "the first reply", reps[0], sum)
	wantFrame(t, "the cached replay", reps[1], sum)
	wantFrame(t, "the moved redirect", reps[2], xrep.Seq{xrep.Int(9), xrep.Str(OutcomeMoved),
		xrep.Seq{xrep.PortName{Node: "elsewhere", Guardian: 1, Port: 2}, xrep.Int(7)}})
}

// TestEnvelopeRefusesWhatLimitsRefuse: a request whose envelope the world's
// Limits refuse — a seq, ack or argument over 24 bits, an over-long client
// id, command or argument list, a too-deep argument — fails with the
// sentinel the envelope built of values failed with, and no frame leaves
// the node; a reply the Limits refuse is not sent.
func TestEnvelopeRefusesWhatLimitsRefuse(t *testing.T) {
	for _, c := range []struct {
		name   string
		limits xrep.Limits
		setup  func(c *Caller)
		cmd    string
		args   []any
		want   error
	}{
		{"argument over 24 bits", xrep.Paper24BitLimits, nil, "add", []any{int64(1 << 23)}, xrep.ErrIntRange},
		{"seq over 24 bits", xrep.Paper24BitLimits, func(c *Caller) { c.seq = 1<<23 - 1 }, "add", []any{int64(1)}, xrep.ErrIntRange},
		{"ack over 24 bits", xrep.Paper24BitLimits, func(c *Caller) { c.acked = 1 << 23 }, "add", []any{int64(1)}, xrep.ErrIntRange},
		{"long client id", xrep.Limits{MaxStringLen: 6}, nil, "add", []any{int64(1)}, xrep.ErrTooLong},
		{"long command", xrep.Limits{MaxStringLen: 12}, nil, "a-long-command", nil, xrep.ErrTooLong},
		{"long argument", xrep.Limits{MaxStringLen: 12}, nil, "add", []any{"a-long-argument"}, xrep.ErrTooLong},
		{"long argument list", xrep.Limits{MaxSeqLen: 5}, nil, "add", []any{1, 2, 3, 4, 5, 6}, xrep.ErrTooLong},
		{"envelope over the sequence bound", xrep.Limits{MaxSeqLen: 4}, nil, "add", nil, xrep.ErrTooLong},
		{"too-deep argument", xrep.Limits{MaxDepth: 2}, nil, "add", []any{[]any{int64(1)}}, xrep.ErrTooDeep},
	} {
		t.Run(c.name, func(t *testing.T) {
			tp, cli, _, srv := echoWorld(t, c.limits, 1)
			cl := newTestCaller(t, cli, "c")
			if c.setup != nil {
				c.setup(cl)
			}
			if _, err := cl.Call(srv, c.cmd, c.args...); !errors.Is(err, c.want) {
				t.Errorf("got %v, want %v", err, c.want)
			}
			if n := len(tp.frames(t, "cli")); n != 0 {
				t.Errorf("a refused call put %d frames on the wire", n)
			}
		})
	}
	tp, cli, srvNode, _ := echoWorld(t, xrep.Paper24BitLimits, 1)
	_, drv, err := srvNode.NewDriver("replier")
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := cli.NewDriver("client")
	if err != nil {
		t.Fatal(err)
	}
	to := g.MustNewPort(ReplyType, 1).Name()
	m := &guardian.Message{ReplyTo: to, Args: xrep.Seq{xrep.Str("c"), xrep.Int(1), xrep.Int(0), xrep.Str("add"), xrep.Seq{}}}
	SendReply(drv, m, "sum", xrep.Seq{xrep.Int(1 << 23)})
	SendMoved(drv, m, to, 1<<23)
	if n := len(tp.frames(t, "srv")); n != 0 {
		t.Errorf("refused replies put %d frames on the wire", n)
	}
	SendReply(drv, m, "sum", xrep.Seq{xrep.Int(1<<23 - 1)})
	if n := len(tp.frames(t, "srv")); n != 1 {
		t.Errorf("a reply at the bound put %d frames on the wire", n)
	}
}

// TestConcurrentCallersGetTheirOwnReplies: eight callers on one server
// whose four processes answer at once, each writing its reply in a scratch
// of its own; every reply carries its own request's arguments back, those
// too long for the stack scratch included.
func TestConcurrentCallersGetTheirOwnReplies(t *testing.T) {
	_, cli, _, srv := echoWorld(t, xrep.DefaultLimits, 4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		c := newTestCaller(t, cli, fmt.Sprintf("c%d", i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 40; j++ {
				payload := fmt.Sprintf("%d/%d/", i, j) + strings.Repeat("x", j*7)
				rep, err := c.Call(srv, "echo", payload, int64(i*1000+j))
				if err != nil {
					t.Errorf("caller %d call %d: %v", i, j, err)
					return
				}
				if rep.Command != "echo" || len(rep.Args) != 2 || rep.Str(0) != payload || rep.Int(1) != int64(i*1000+j) {
					t.Errorf("caller %d call %d got %s%v", i, j, rep.Command, rep.Args)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
