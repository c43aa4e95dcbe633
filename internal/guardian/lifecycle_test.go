package guardian

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xrep"
)

// counterType: a guardian keeping a persistent counter. inc() bumps and
// logs; get() replyto reports the value.
var counterPortType = NewPortType("counter_port").
	Msg("inc").
	Msg("get").
	Replies("get", "value")

var counterReplyType = NewPortType("counter_reply_port").
	Msg("value", xrep.KindInt)

// counterDef logs each increment durably before treating it as done, and
// recovers the count by replaying its log — the §2.2 recipe.
var counterDef = &GuardianDef{
	TypeName: "counter",
	Provides: []*PortType{counterPortType},
	Init:     counterMain,
	Recover:  counterMain,
}

func counterMain(ctx *Ctx) {
	log := ctx.G.Log()
	var count int64
	if ctx.Recovering {
		_, recs, _ := log.Recover()
		count = int64(len(recs))
	}
	NewReceiver(ctx.Ports[0]).
		When("inc", func(pr *Process, m *Message) {
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], uint64(count+1))
			log.AppendSync(buf[:])
			count++
		}).
		When("get", func(pr *Process, m *Message) {
			if !m.ReplyTo.IsZero() {
				_ = pr.Send(m.ReplyTo, "value", count)
			}
		}).
		Loop(ctx.Proc, nil)
}

func counterValue(t *testing.T, drv *Process, port xrep.PortName) (int64, bool) {
	t.Helper()
	reply := drv.Guardian().MustNewPort(counterReplyType, 4)
	defer drv.Guardian().RemovePort(reply)
	if err := drv.SendReplyTo(port, reply.Name(), "get"); err != nil {
		t.Fatal(err)
	}
	m, st := drv.Receive(2*time.Second, reply)
	if st != RecvOK {
		return 0, false
	}
	if m.IsFailure() {
		return 0, false
	}
	return m.Int(0), true
}

func TestCrashKillsGuardiansAndDropsVolatileState(t *testing.T) {
	w, a, b := newWorld(t, Config{})
	w.MustRegister(counterDef)
	created, err := a.Bootstrap("counter")
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	port := created.Ports[0]
	if v, ok := counterValue(t, drv, port); !ok || v != 0 {
		t.Fatalf("initial value %d/%v", v, ok)
	}
	a.Crash()
	if a.Alive() {
		t.Fatal("node alive after crash")
	}
	// Messages to a dead node vanish; a get times out.
	if _, ok := counterValue(t, drv, port); ok {
		t.Fatal("dead node answered")
	}
}

func TestRecoverRestoresLoggedState(t *testing.T) {
	w, a, b := newWorld(t, Config{})
	w.MustRegister(counterDef)
	created, err := a.Bootstrap("counter")
	if err != nil {
		t.Fatal(err)
	}
	port := created.Ports[0]
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := drv.Send(port, "inc"); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until all five increments are durable.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v, ok := counterValue(t, drv, port); ok && v == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("increments never applied")
		}
	}
	a.Crash()
	if err := a.Restart(); err != nil {
		t.Fatal(err)
	}
	// Same port name answers after recovery: identity is preserved.
	v, ok := counterValue(t, drv, port)
	if !ok {
		t.Fatal("recovered guardian not answering on its old port name")
	}
	if v != 5 {
		t.Fatalf("recovered count = %d, want 5 (permanence of effect)", v)
	}
	if w.Stats().GuardiansRecovered.Load() != 1 {
		t.Fatalf("GuardiansRecovered = %d", w.Stats().GuardiansRecovered.Load())
	}
}

func TestNonRecoverableGuardianForgotten(t *testing.T) {
	w, a, b := newWorld(t, Config{})
	registerEcho(t, w) // echoDef has no Recover
	created, err := a.Bootstrap("echo")
	if err != nil {
		t.Fatal(err)
	}
	a.Crash()
	if err := a.Restart(); err != nil {
		t.Fatal(err)
	}
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	reply := drv.Guardian().MustNewPort(echoReplyType, 8)
	if err := drv.SendReplyTo(created.Ports[0], reply.Name(), "echo", "x"); err != nil {
		t.Fatal(err)
	}
	m, st := drv.Receive(2*time.Second, reply)
	if st != RecvOK || !m.IsFailure() {
		t.Fatalf("forgotten guardian should draw failure, got %v", st)
	}
}

func TestRestartWhileUpFails(t *testing.T) {
	_, a, _ := newWorld(t, Config{})
	if err := a.Restart(); err == nil {
		t.Fatal("Restart on a live node succeeded")
	}
}

func TestCrashIsIdempotent(t *testing.T) {
	_, a, _ := newWorld(t, Config{})
	a.Crash()
	a.Crash() // must not panic
	if err := a.Restart(); err != nil {
		t.Fatal(err)
	}
	if !a.Alive() {
		t.Fatal("node not alive after restart")
	}
}

func TestProcessesObserveKill(t *testing.T) {
	w, a, _ := newWorld(t, Config{})
	var observed atomic.Bool
	w.MustRegister(&GuardianDef{
		TypeName: "watcher",
		Init: func(ctx *Ctx) {
			<-ctx.G.Killed()
			observed.Store(true)
		},
	})
	if _, err := a.Bootstrap("watcher"); err != nil {
		t.Fatal(err)
	}
	a.Crash()
	deadline := time.Now().Add(time.Second)
	for !observed.Load() {
		if time.Now().After(deadline) {
			t.Fatal("process never observed the kill")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReceiveReturnsKilledOnCrash(t *testing.T) {
	w, a, _ := newWorld(t, Config{})
	status := make(chan RecvStatus, 1)
	w.MustRegister(&GuardianDef{
		TypeName: "blocked",
		Provides: []*PortType{NewPortType("bp").Msg("never")},
		Init: func(ctx *Ctx) {
			_, st := ctx.Proc.Receive(Infinite, ctx.Ports[0])
			status <- st
		},
	})
	if _, err := a.Bootstrap("blocked"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	a.Crash()
	select {
	case st := <-status:
		if st != RecvKilled {
			t.Fatalf("blocked receive ended with %v, want killed", st)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked receive never unwound after crash")
	}
}

func TestSendFromDeadGuardianFails(t *testing.T) {
	_, a, _ := newWorld(t, Config{})
	g, drv, err := a.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	g.SelfDestruct()
	to := xrep.PortName{Node: "beta", Guardian: 1, Port: 1}
	if err := drv.Send(to, "ping"); err != ErrKilled {
		t.Fatalf("send from destroyed guardian = %v, want ErrKilled", err)
	}
	// The liveness check comes before step 1 (argument encoding), so
	// ErrKilled wins over an encode exception.
	var untransmittable any = struct{}{}
	if err := drv.Send(to, "ping", untransmittable); err != ErrKilled {
		t.Fatalf("send of an untransmittable value from a destroyed guardian = %v, want ErrKilled", err)
	}
	if err := drv.SendSeq(to, xrep.PortName{}, "ping", xrep.Seq{xrep.Int(1)}); err != ErrKilled {
		t.Fatalf("SendSeq from destroyed guardian = %v, want ErrKilled", err)
	}
}

func TestPortQueueLostAtCrash(t *testing.T) {
	// Messages queued but not received are volatile: after crash+recover
	// the counter reflects only logged increments, not queued ones.
	w, a, b := newWorld(t, Config{})
	// slowCounter waits before consuming so messages pile up.
	slow := &GuardianDef{
		TypeName: "slow_counter",
		Provides: []*PortType{counterPortType},
		Init: func(ctx *Ctx) {
			<-ctx.G.Killed() // never consume
		},
		Recover: counterMain,
	}
	w.MustRegister(slow)
	created, err := a.Bootstrap("slow_counter")
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := drv.Send(created.Ports[0], "inc"); err != nil {
			t.Fatal(err)
		}
	}
	w.Quiesce()
	time.Sleep(20 * time.Millisecond)
	a.Crash()
	if err := a.Restart(); err != nil {
		t.Fatal(err)
	}
	v, ok := counterValue(t, drv, created.Ports[0])
	if !ok {
		t.Fatal("recovered guardian not answering")
	}
	if v != 0 {
		t.Fatalf("recovered count = %d, want 0 (queued messages are volatile)", v)
	}
}

func TestGuardianIDsNotReusedAfterRestart(t *testing.T) {
	w, a, _ := newWorld(t, Config{})
	registerEcho(t, w)
	c1, err := a.Bootstrap("echo")
	if err != nil {
		t.Fatal(err)
	}
	a.Crash()
	if err := a.Restart(); err != nil {
		t.Fatal(err)
	}
	c2, err := a.Bootstrap("echo")
	if err != nil {
		t.Fatal(err)
	}
	if c2.GuardianID == c1.GuardianID {
		t.Fatalf("guardian id %d reused after restart", c1.GuardianID)
	}
}
