package guardian

import (
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/internal/xrep"
)

func TestTracerRecordsMessageLifecycle(t *testing.T) {
	w, a, b := newWorld(t, Config{})
	registerEcho(t, w)
	tr := NewRingTracer(256)
	w.SetTracer(tr)
	created, err := a.Bootstrap("echo")
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	reply := drv.Guardian().MustNewPort(echoReplyType, 8)
	if err := drv.SendReplyTo(created.Ports[0], reply.Name(), "echo", "traced"); err != nil {
		t.Fatal(err)
	}
	if m, st := drv.Receive(2*time.Second, reply); st != RecvOK || m.Str(0) != "traced" {
		t.Fatal("echo failed")
	}
	w.Quiesce()
	time.Sleep(10 * time.Millisecond)

	kinds := map[string]int{}
	for _, e := range tr.Events() {
		kinds[e.Kind]++
	}
	if kinds[EvCreate] == 0 {
		t.Error("no create events")
	}
	if kinds[EvSend] < 2 {
		t.Errorf("send events = %d, want ≥2 (request + reply)", kinds[EvSend])
	}
	if kinds[EvDeliver] < 2 {
		t.Errorf("deliver events = %d, want ≥2", kinds[EvDeliver])
	}
	if tr.Total() < 4 {
		t.Errorf("Total = %d", tr.Total())
	}
}

func TestTracerRecordsCrashRecoveryAndDiscards(t *testing.T) {
	w, a, b := newWorld(t, Config{})
	w.MustRegister(counterDef)
	tr := NewRingTracer(256)
	w.SetTracer(tr)
	created, err := a.Bootstrap("counter")
	if err != nil {
		t.Fatal(err)
	}
	a.Crash()
	if err := a.Restart(); err != nil {
		t.Fatal(err)
	}
	// A send to a forgotten port id draws a discard event.
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	bad := created.Ports[0]
	bad.Guardian = 9999
	reply := drv.Guardian().MustNewPort(echoReplyType, 8)
	if err := drv.SendReplyTo(bad, reply.Name(), "inc"); err != nil {
		t.Fatal(err)
	}
	if m, st := drv.Receive(2*time.Second, reply); st != RecvOK || !m.IsFailure() {
		t.Fatal("expected failure")
	}
	kinds := map[string]int{}
	var discardDetail string
	for _, e := range tr.Events() {
		kinds[e.Kind]++
		if e.Kind == EvDiscard {
			discardDetail = e.Detail
		}
	}
	for _, k := range []string{EvCrash, EvRestart, EvRecover, EvDiscard, EvFailure} {
		if kinds[k] == 0 {
			t.Errorf("no %s events: %v", k, kinds)
		}
	}
	if !strings.Contains(discardDetail, "no guardian") {
		t.Errorf("discard detail = %q", discardDetail)
	}
}

func TestRingTracerEviction(t *testing.T) {
	tr := NewRingTracer(3)
	for i := 0; i < 5; i++ {
		tr.Trace(Event{Kind: EvSend, Detail: string(rune('a' + i))})
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	if evs[0].Detail != "c" || evs[2].Detail != "e" {
		t.Fatalf("ring order wrong: %v", evs)
	}
	if tr.Total() != 5 {
		t.Fatalf("Total = %d", tr.Total())
	}
}

func TestRingTracerPartialAndString(t *testing.T) {
	tr := NewRingTracer(10)
	tr.Trace(Event{Time: time.Unix(0, 0), Kind: EvSend, Node: "n", Detail: "x"})
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("len = %d", len(evs))
	}
	s := evs[0].String()
	if !strings.Contains(s, "send") || !strings.Contains(s, "n") {
		t.Fatalf("String = %q", s)
	}
}

func TestSetTracerNilDisables(t *testing.T) {
	w, a, _ := newWorld(t, Config{})
	tr := NewRingTracer(16)
	w.SetTracer(tr)
	w.SetTracer(nil)
	if _, _, err := a.NewDriver("d"); err != nil {
		t.Fatal(err)
	}
	if tr.Total() != 0 {
		t.Fatalf("disabled tracer received %d events", tr.Total())
	}
}

// TestTraceOffAllocatesNothing: the two per-message events must not build
// (and box) their arguments when no tracer is installed.
func TestTraceOffAllocatesNothing(t *testing.T) {
	w, _, _ := newWorld(t, Config{})
	to := xrep.PortName{Node: "server", Guardian: 1 << 20, Port: 1 << 20}
	f := &wire.Frame{Dest: to, SrcNode: "client", SrcGuardian: 1 << 20, Command: "echo"}
	events := func() {
		w.traceSend("client", "echo", 1<<20, to)
		w.traceDeliver("server", f)
	}
	if n := testing.AllocsPerRun(100, events); n != 0 {
		t.Fatalf("send+deliver events with no tracer allocate %v times", n)
	}
	tr := NewRingTracer(4)
	w.SetTracer(tr)
	events()
	if tr.Total() != 2 {
		t.Fatalf("installed tracer saw %d events, want 2", tr.Total())
	}
	w.SetTracer(nil)
	if n := testing.AllocsPerRun(100, events); n != 0 {
		t.Fatalf("send+deliver events after the tracer was removed allocate %v times", n)
	}
}
