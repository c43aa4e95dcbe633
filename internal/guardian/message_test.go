package guardian

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/xrep"
)

func sampleMessage() *Message {
	return &Message{
		Command: "mix",
		Args: xrep.Seq{
			xrep.Int(7),
			xrep.Str("s"),
			xrep.Bool(true),
			xrep.Real(2.5),
			xrep.PortName{Node: "n", Guardian: 1, Port: 2},
			xrep.Token{Issuer: 3, Body: []byte{1}},
		},
		SrcNode:     "src",
		SrcGuardian: 9,
	}
}

func TestMessageAccessors(t *testing.T) {
	m := sampleMessage()
	if m.Int(0) != 7 {
		t.Fatal("Int")
	}
	if m.Str(1) != "s" {
		t.Fatal("Str")
	}
	if !m.Bool(2) {
		t.Fatal("Bool")
	}
	if m.Real(3) != 2.5 {
		t.Fatal("Real")
	}
	if m.Port(4).Guardian != 1 {
		t.Fatal("Port")
	}
	if m.Token(5).Issuer != 3 {
		t.Fatal("Token")
	}
}

func TestMessageAccessorKindMismatchPanics(t *testing.T) {
	m := sampleMessage()
	cases := []func(){
		func() { m.Int(1) },
		func() { m.Str(0) },
		func() { m.Bool(0) },
		func() { m.Real(0) },
		func() { m.Port(0) },
		func() { m.Token(0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: kind mismatch did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMessageArgOutOfRange(t *testing.T) {
	m := sampleMessage()
	if _, err := m.Arg(99); err == nil {
		t.Fatal("out-of-range Arg succeeded")
	}
	if _, err := m.Arg(-1); err == nil {
		t.Fatal("negative Arg succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Int did not panic")
		}
	}()
	m.Int(99)
}

func TestMessageFailureHelpers(t *testing.T) {
	f := &Message{Command: FailureCommand, Args: xrep.Seq{xrep.Str("boom")}}
	if !f.IsFailure() || f.FailureText() != "boom" {
		t.Fatalf("failure helpers: %v %q", f.IsFailure(), f.FailureText())
	}
	n := &Message{Command: "ok"}
	if n.IsFailure() || n.FailureText() != "" {
		t.Fatal("non-failure misclassified")
	}
	malformed := &Message{Command: FailureCommand, Args: xrep.Seq{xrep.Int(1)}}
	if malformed.FailureText() != "" {
		t.Fatal("malformed failure text")
	}
}

func TestMessageDecodeViaNodeRegistry(t *testing.T) {
	w, a, _ := newWorld(t, Config{})
	_ = w
	a.Registry().Register(xrep.ComplexTypeName, xrep.DecodeRectComplex)
	g, _, err := a.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	p := g.MustNewPort(NewPortType("t").Msg("c", xrep.KindRec), 4)
	m := &Message{
		Command: "c",
		Args:    xrep.Seq{xrep.MustEncode(xrep.RectComplex{Re: 1, Im: 2})},
		Via:     p,
	}
	v, err := m.Decode(0)
	if err != nil {
		t.Fatal(err)
	}
	if v.(xrep.RectComplex) != (xrep.RectComplex{Re: 1, Im: 2}) {
		t.Fatalf("decoded %v", v)
	}
	// Decode without a receiving port fails cleanly.
	orphan := &Message{Command: "c", Args: xrep.Seq{xrep.Int(1)}}
	if _, err := orphan.Decode(0); err == nil {
		t.Fatal("Decode without Via succeeded")
	}
}

func TestRecvStatusStrings(t *testing.T) {
	if RecvOK.String() != "ok" || RecvTimeout.String() != "timeout" ||
		RecvKilled.String() != "killed" || RecvStatus(99).String() != "unknown" {
		t.Fatal("status strings")
	}
}

func TestConcurrentReceiversShareOnePort(t *testing.T) {
	// Several processes of one guardian may all receive on the same port;
	// each message is removed exactly once.
	w, a, _ := newWorld(t, Config{})
	_ = w
	g, drv, err := a.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	p := g.MustNewPort(NewPortType("work").Msg("job", xrep.KindInt), 256)
	const workers, jobs = 4, 100
	got := make(chan int64, jobs)
	for i := 0; i < workers; i++ {
		g.Spawn("w", func(pr *Process) {
			for {
				m, st := pr.Receive(Infinite, p)
				if st != RecvOK {
					return
				}
				got <- m.Int(0)
			}
		})
	}
	for i := 0; i < jobs; i++ {
		if err := drv.Send(p.Name(), "job", i); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[int64]bool)
	for i := 0; i < jobs; i++ {
		v := <-got
		if seen[v] {
			t.Fatalf("job %d delivered twice", v)
		}
		seen[v] = true
	}
	g.SelfDestruct() // unblocks the workers
}

func TestSendChecksPortTypeOfFailureArm(t *testing.T) {
	// The implicit failure message is sendable to any port without
	// declaring it.
	w, a, _ := newWorld(t, Config{})
	_ = w
	g, drv, err := a.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	p := g.MustNewPort(NewPortType("t").Msg("x"), 4)
	if err := drv.SendChecked(p.Type(), p.Name(), FailureCommand, "synthetic"); err != nil {
		t.Fatalf("checked send of failure rejected: %v", err)
	}
}

// slotsType takes a message of every slot count: none() has no slots, and
// k(list) has one for list and one for each of its elements.
var slotsType = NewPortType("slots").Msg("none").Msg("k", AnyKind)

// slotsArgs is what message i of a run sends with slots sequence slots:
// integers over 255, so that each slot holds a box of its own.
func slotsArgs(i, slots int) (string, xrep.Seq) {
	if slots == 0 {
		return "none", nil
	}
	list := make(xrep.Seq, slots-1)
	for j := range list {
		list[j] = xrep.Int(1000*i + j)
	}
	return "k", xrep.Seq{list}
}

// TestKeptArgsOutliveLaterDeliveries: up to 8 slots, a delivery's Message
// and its argument slots are one allocation (withSlots), and beyond that
// two. A receiver keeps every message of 0–9 slots sent to it, over netsim
// and locally. After all of them have arrived and a collection has run,
// each still reads what was sent; appending to a kept argument list or to
// the list inside it copies it, since neither has spare capacity, and
// leaves every kept message as it was.
func TestKeptArgsOutliveLaterDeliveries(t *testing.T) {
	w, a, b := newWorld(t, Config{})
	defer w.Close()
	g, recv, err := a.NewDriver("recv")
	if err != nil {
		t.Fatal(err)
	}
	port := g.MustNewPort(slotsType, 64)
	_, remote, err := b.NewDriver("remote")
	if err != nil {
		t.Fatal(err)
	}
	for _, via := range []struct {
		name string
		from *Process
	}{{"netsim", remote}, {"local", recv}} {
		t.Run(via.name, func(t *testing.T) {
			var kept []*Message
			for i := 0; i < 40; i++ {
				cmd, args := slotsArgs(i, i%10)
				if err := via.from.SendSeq(port.Name(), xrep.PortName{}, cmd, args); err != nil {
					t.Fatal(err)
				}
				m, st := recv.Receive(5*time.Second, port)
				if st != RecvOK {
					t.Fatalf("message %d: %v", i, st)
				}
				kept = append(kept, m)
			}
			runtime.GC()
			check := func(when string) {
				t.Helper()
				for i, m := range kept {
					cmd, args := slotsArgs(i, i%10)
					if m.Command != cmd || !xrep.Equal(m.Args, args) || m.Via != port || m.SrcNode != via.from.Guardian().Node().Name() {
						t.Fatalf("%s, message %d reads %s%v from %s, want %s%v", when, i, m.Command, m.Args, m.SrcNode, cmd, args)
					}
				}
			}
			check("once all had arrived")
			for i, m := range kept {
				if len(m.Args) == 0 {
					continue
				}
				list := m.Seq(0)
				if cap(m.Args) != len(m.Args) || cap(list) != len(list) {
					t.Fatalf("message %d: arguments of capacity %d for %d, list of %d for %d", i, cap(m.Args), len(m.Args), cap(list), len(list))
				}
				grown := append(m.Args, xrep.Int(-1))
				grown[0] = xrep.Int(-2)
				longer := append(list, xrep.Int(-3))
				for j := range longer {
					longer[j] = xrep.Int(-4)
				}
			}
			check("after appending to each")
		})
	}
}
