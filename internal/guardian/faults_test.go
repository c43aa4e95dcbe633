package guardian

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/vtime"
	"repro/internal/xrep"
)

// deployCollector builds a world whose "srv" node hosts a guardian that
// counts arriving data(Int) messages on a channel.
func deployCollector(t *testing.T, cfg Config) (*World, xrep.PortName, chan int64) {
	t.Helper()
	w := NewWorld(cfg)
	seen := make(chan int64, 4096)
	w.MustRegister(&GuardianDef{
		TypeName:     "collector",
		Provides:     []*PortType{NewPortType("c").Msg("data", xrep.KindInt)},
		PortCapacity: 4096,
		Init: func(ctx *Ctx) {
			NewReceiver(ctx.Ports[0]).
				When("data", func(pr *Process, m *Message) { seen <- m.Int(0) }).
				Loop(ctx.Proc, nil)
		},
	})
	srv := w.MustAddNode("srv")
	created, err := srv.Bootstrap("collector")
	if err != nil {
		t.Fatal(err)
	}
	return w, created.Ports[0], seen
}

func drain(seen chan int64, settle time.Duration) []int64 {
	var out []int64
	for {
		select {
		case v := <-seen:
			out = append(out, v)
		case <-time.After(settle):
			return out
		}
	}
}

func TestCorruptedMessagesNeverReachPorts(t *testing.T) {
	// Every network corruption must be caught by the wire checksums: the
	// message is thrown away (best-effort loss), never delivered mangled.
	w, port, seen := deployCollector(t, Config{
		Net: netsim.Config{Seed: 9, CorruptRate: 0.3},
	})
	cli := w.MustAddNode("cli")
	_, drv, err := cli.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	const total = 300
	for i := 0; i < total; i++ {
		if err := drv.Send(port, "data", i); err != nil {
			t.Fatal(err)
		}
	}
	w.Quiesce()
	got := drain(seen, 50*time.Millisecond)
	if len(got) == total {
		t.Fatal("no corruption observed; fault injection inert")
	}
	// Every delivered value must be one that was actually sent, intact.
	for _, v := range got {
		if v < 0 || v >= total {
			t.Fatalf("mangled value %d delivered", v)
		}
	}
	st := w.Stats()
	corrupted := w.Net().Counts().Corrupted
	if st.DiscardBadFrame.Load() != corrupted {
		t.Fatalf("BadFrame discards (%d) != corrupted packets (%d)",
			st.DiscardBadFrame.Load(), corrupted)
	}
	if int64(len(got))+corrupted != total {
		t.Fatalf("delivered(%d) + corrupted(%d) != sent(%d)", len(got), corrupted, total)
	}
}

func TestDuplicatedMessagesDeliveredOnce(t *testing.T) {
	// The network duplicates packets; the reassembly layer's completed-id
	// memory keeps the message from being delivered twice.
	w, port, seen := deployCollector(t, Config{
		Net: netsim.Config{Seed: 4, DupRate: 1.0},
	})
	cli := w.MustAddNode("cli")
	_, drv, err := cli.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	const total = 100
	for i := 0; i < total; i++ {
		if err := drv.Send(port, "data", i); err != nil {
			t.Fatal(err)
		}
	}
	w.Quiesce()
	got := drain(seen, 50*time.Millisecond)
	if len(got) != total {
		t.Fatalf("delivered %d messages with DupRate=1, want exactly %d", len(got), total)
	}
	counts := map[int64]int{}
	for _, v := range got {
		counts[v]++
		if counts[v] > 1 {
			t.Fatalf("message %d delivered twice", v)
		}
	}
}

// keepOpen is a world's transport onto a network other worlds share: closing
// the world leaves the network up.
type keepOpen struct{ *netsim.Network }

func (keepOpen) Close() error { return nil }

// TestRestartedProcessIsHeard: a node re-created at an address — a new OS
// process, its message ids starting over — is heard at once. Its packets
// must not be dropped as duplicates of its predecessor's messages, whose ids
// the receiver remembers for ReassemblyAge.
func TestRestartedProcessIsHeard(t *testing.T) {
	net := netsim.New(vtime.NewReal(), netsim.Config{})
	defer net.Close()
	w, port, seen := deployCollector(t, Config{Transport: keepOpen{net}})
	defer w.Close()
	for incarnation, sends := range []int{20, 5} {
		cw := NewWorld(Config{Transport: keepOpen{net}})
		cli := cw.MustAddNode("cli")
		_, drv, err := cli.NewDriver("d")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sends; i++ {
			if err := drv.Send(port, "data", i); err != nil {
				t.Fatal(err)
			}
		}
		net.Quiesce()
		if got := drain(seen, 20*time.Millisecond); len(got) != sends {
			t.Fatalf("incarnation %d: %d of %d messages arrived", incarnation, len(got), sends)
		}
		cli.Crash()
		cw.Close()
	}
}

func TestPartialFragmentsEvicted(t *testing.T) {
	// A fragmented message that loses packets must not pin reassembly
	// state forever: the sweep abandons it after ReassemblyAge.
	w, port, seen := deployCollector(t, Config{
		FragmentMTU:   256,
		ReassemblyAge: 50 * time.Millisecond,
		Net:           netsim.Config{Seed: 2, LossRate: 0.5},
	})
	cli := w.MustAddNode("cli")
	_, drv, err := cli.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	// Big messages: ~8 fragments each, so at 50% loss nearly every message
	// loses at least one fragment and strands a partial assembly.
	big := xrep.Seq{xrep.Int(1), xrep.Bytes(make([]byte, 1500))}
	bigPort := NewPortType("b").Msg("blob", xrep.KindInt, xrep.KindBytes)
	w.MustRegister(&GuardianDef{
		TypeName: "blobsink",
		Provides: []*PortType{bigPort},
		Init: func(ctx *Ctx) {
			NewReceiver(ctx.Ports[0]).
				When("blob", func(pr *Process, m *Message) { seen <- m.Int(0) }).
				Loop(ctx.Proc, nil)
		},
	})
	srv, _ := w.Node("srv")
	created, err := srv.Bootstrap("blobsink")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := drv.Send(created.Ports[0], "blob", big[0], big[1]); err != nil {
			t.Fatal(err)
		}
	}
	w.Quiesce()
	// Keep traffic flowing so the lazy sweep runs after the age passes.
	time.Sleep(80 * time.Millisecond)
	for i := 0; i < 5; i++ {
		if err := drv.Send(port, "data", 0); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	w.Quiesce()
	if n := srv.reasm.Pending(); n > 5 {
		t.Fatalf("%d partial messages still pinned after sweep age", n)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	w, port, seen := deployCollector(t, Config{})
	cli := w.MustAddNode("cli")
	_, drv, err := cli.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	w.Net().Partition([]netsim.Addr{"srv"}, []netsim.Addr{"cli"})
	for i := 0; i < 5; i++ {
		if err := drv.Send(port, "data", i); err != nil {
			t.Fatal(err)
		}
	}
	w.Quiesce()
	if got := drain(seen, 30*time.Millisecond); len(got) != 0 {
		t.Fatalf("%d messages crossed the partition", len(got))
	}
	w.Net().Heal()
	for i := 5; i < 10; i++ {
		if err := drv.Send(port, "data", i); err != nil {
			t.Fatal(err)
		}
	}
	w.Quiesce()
	if got := drain(seen, 50*time.Millisecond); len(got) != 5 {
		t.Fatalf("after heal delivered %d, want 5 (partitioned messages stay lost)", len(got))
	}
}

func TestReceiveTimeoutOnSimulatedClock(t *testing.T) {
	// Timeout semantics are exact under the simulated clock: the arm
	// fires at the deadline, not a nanosecond of wall time earlier.
	clock := vtime.NewSim(time.Unix(0, 0))
	w := NewWorld(Config{Clock: clock})
	n := w.MustAddNode("n")
	g, drv, err := n.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	p := g.MustNewPort(NewPortType("t").Msg("x"), 4)
	done := make(chan RecvStatus, 1)
	go func() {
		_, st := drv.Receive(10*time.Second, p)
		done <- st
	}()
	for clock.PendingTimers() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	clock.Advance(9 * time.Second)
	select {
	case st := <-done:
		t.Fatalf("receive ended with %v before its simulated deadline", st)
	case <-time.After(20 * time.Millisecond):
	}
	clock.Advance(time.Second)
	select {
	case st := <-done:
		if st != RecvTimeout {
			t.Fatalf("status %v, want timeout", st)
		}
	case <-time.After(time.Second):
		t.Fatal("receive never timed out after Advance past deadline")
	}
}

func TestReceiveWakesOnArrivalUnderSimClock(t *testing.T) {
	clock := vtime.NewSim(time.Unix(0, 0))
	w := NewWorld(Config{Clock: clock})
	n := w.MustAddNode("n")
	g, drv, err := n.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	p := g.MustNewPort(NewPortType("t").Msg("x", xrep.KindInt), 4)
	done := make(chan *Message, 1)
	go func() {
		m, _ := drv.Receive(time.Hour, p)
		done <- m
	}()
	for clock.PendingTimers() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// Local send: delivery needs no simulated time to pass.
	if err := drv.Send(p.Name(), "x", 42); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-done:
		if m.Int(0) != 42 {
			t.Fatalf("got %v", m.Args)
		}
	case <-time.After(time.Second):
		t.Fatal("arrival did not wake the receiver under the simulated clock")
	}
}

// TestConcurrentSendsKeepTheirBytes: every send builds its packets in a
// pooled buffer that the next send overwrites. With many processes sending
// at once — one- and many-fragment messages, every packet duplicated and
// delayed in the network — each message must still arrive exactly once
// with the bytes its sender gave it.
func TestConcurrentSendsKeepTheirBytes(t *testing.T) {
	type blob struct {
		sender, seq int64
		ok          bool
	}
	got := make(chan blob, 4096)
	w := NewWorld(Config{
		FragmentMTU: 512,
		Net:         netsim.Config{Seed: 9, DupRate: 1, BaseLatency: 50 * time.Microsecond, Jitter: 200 * time.Microsecond},
	})
	sinkPort := NewPortType("blobs").Msg("blob", xrep.KindInt, xrep.KindInt, xrep.KindBytes)
	w.MustRegister(&GuardianDef{
		TypeName:     "blobcheck",
		Provides:     []*PortType{sinkPort},
		PortCapacity: 4096,
		Init: func(ctx *Ctx) {
			NewReceiver(ctx.Ports[0]).
				WhenFailure(func(pr *Process, text string, m *Message) { t.Errorf("failure(%q)", text) }).
				When("blob", func(pr *Process, m *Message) {
					b := blob{sender: m.Int(0), seq: m.Int(1), ok: true}
					data, _ := m.Args[2].(xrep.Bytes)
					b.ok = len(data) >= 20
					for _, x := range data {
						b.ok = b.ok && x == byte(b.sender*16+b.seq%16)
					}
					got <- b
				}).
				Loop(ctx.Proc, nil)
		},
	})
	created, err := w.MustAddNode("srv").Bootstrap("blobcheck")
	if err != nil {
		t.Fatal(err)
	}
	cli := w.MustAddNode("cli")
	const senders, each = 8, 40
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		_, drv, err := cli.NewDriver(fmt.Sprintf("d%d", s))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				data := make([]byte, 20+(i%4)*700) // 1 to 5 fragments
				for j := range data {
					data[j] = byte(s*16 + i%16)
				}
				if err := drv.Send(created.Ports[0], "blob", s, i, data); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	w.Quiesce()
	seen := make(map[[2]int64]bool)
	for len(seen) < senders*each {
		select {
		case b := <-got:
			if !b.ok {
				t.Fatalf("message %d of sender %d arrived with another message's bytes", b.seq, b.sender)
			}
			if seen[[2]int64{b.sender, b.seq}] {
				t.Fatalf("message %d of sender %d delivered twice", b.seq, b.sender)
			}
			seen[[2]int64{b.sender, b.seq}] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d messages arrived", len(seen), senders*each)
		}
	}
	select {
	case b := <-got:
		t.Fatalf("message %d of sender %d delivered twice", b.seq, b.sender)
	case <-time.After(20 * time.Millisecond):
	}
}
