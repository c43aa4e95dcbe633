package guardian

import (
	"testing"
	"time"

	"repro/internal/xrep"
)

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Clock == nil {
		t.Fatal("no default clock")
	}
	if cfg.Tuning.HeartbeatInterval != 100*time.Millisecond {
		t.Fatalf("Tuning.HeartbeatInterval = %v", cfg.Tuning.HeartbeatInterval)
	}
	if cfg.FragmentMTU != 16*1024 {
		t.Fatalf("FragmentMTU = %d", cfg.FragmentMTU)
	}
	if cfg.ReassemblyAge != 30*time.Second {
		t.Fatalf("ReassemblyAge = %v", cfg.ReassemblyAge)
	}
	if cfg.Limits != xrep.DefaultLimits {
		t.Fatalf("Limits = %+v", cfg.Limits)
	}
}

func TestWorldAccessors(t *testing.T) {
	w := NewWorld(Config{Limits: xrep.Paper24BitLimits})
	if w.Clock() == nil || w.Net() == nil || w.Stats() == nil {
		t.Fatal("nil accessor")
	}
	if w.Limits() != xrep.Paper24BitLimits {
		t.Fatal("Limits not propagated")
	}
}

func TestNodeAccessors(t *testing.T) {
	w := NewWorld(Config{})
	n := w.MustAddNode("n")
	if n.Name() != "n" || n.World() != w {
		t.Fatal("identity accessors")
	}
	if n.Store() == nil || n.Registry() == nil {
		t.Fatal("nil substrate accessors")
	}
	if !n.Alive() {
		t.Fatal("fresh node not alive")
	}
	if n.PrimordialPort() != (xrep.PortName{Node: "n", Guardian: 1, Port: 1}) {
		t.Fatalf("PrimordialPort = %v", n.PrimordialPort())
	}
}

func TestCreateOnDeadNodeFails(t *testing.T) {
	w := NewWorld(Config{})
	registerEcho(t, w)
	n := w.MustAddNode("n")
	g, _, err := n.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	n.Crash()
	if _, err := g.Create("echo"); err == nil {
		t.Fatal("Create on a crashed node succeeded")
	}
	if _, err := n.Bootstrap("echo"); err == nil {
		t.Fatal("Bootstrap on a crashed node succeeded")
	}
	if _, _, err := n.NewDriver("late"); err == nil {
		t.Fatal("NewDriver on a crashed node succeeded")
	}
}

func TestReceiveNoPortsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewReceiver with no ports did not panic")
		}
	}()
	NewReceiver()
}

func TestPauseReturnsFalseOnKill(t *testing.T) {
	w := NewWorld(Config{})
	n := w.MustAddNode("n")
	g, drv, err := n.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan bool, 1)
	go func() { done <- drv.Pause(time.Hour) }()
	time.Sleep(5 * time.Millisecond)
	g.SelfDestruct()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Pause survived the kill")
		}
	case <-time.After(time.Second):
		t.Fatal("Pause never returned after kill")
	}
}

func TestGuardianIdentityAccessors(t *testing.T) {
	w := NewWorld(Config{})
	registerEcho(t, w)
	n := w.MustAddNode("n")
	created, err := n.Bootstrap("echo")
	if err != nil {
		t.Fatal(err)
	}
	g, ok := n.GuardianByID(created.GuardianID)
	if !ok {
		t.Fatal("GuardianByID")
	}
	if g.ID() != created.GuardianID || g.Node() != n || g.DefName() != "echo" {
		t.Fatal("identity accessors")
	}
	pp := g.ProvidedPorts()
	if len(pp) != 1 || pp[0].Name() != created.Ports[0] {
		t.Fatalf("ProvidedPorts = %v", pp)
	}
	if pp[0].Type() != echoType || pp[0].Guardian() != g {
		t.Fatal("port accessors")
	}
	if pp[0].Capacity() != 64 {
		t.Fatalf("Capacity = %d", pp[0].Capacity())
	}
	ids := n.Guardians()
	found := false
	for _, id := range ids {
		if id == created.GuardianID {
			found = true
		}
	}
	if !found {
		t.Fatalf("Guardians() = %v missing %d", ids, created.GuardianID)
	}
}

func TestPortAccounting(t *testing.T) {
	w := NewWorld(Config{})
	n := w.MustAddNode("n")
	g, drv, err := n.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	p := g.MustNewPort(NewPortType("t").Msg("x"), 2)
	for i := 0; i < 5; i++ {
		if err := drv.Send(p.Name(), "x"); err != nil {
			t.Fatal(err)
		}
	}
	w.Quiesce()
	deadline := time.Now().Add(time.Second)
	for p.Enqueued()+p.Discarded() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p.Enqueued() != 2 || p.Discarded() != 3 {
		t.Fatalf("Enqueued=%d Discarded=%d, want 2/3", p.Enqueued(), p.Discarded())
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestRemovePortThenSendDrawsFailure(t *testing.T) {
	w := NewWorld(Config{})
	n := w.MustAddNode("n")
	g, drv, err := n.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	victim := g.MustNewPort(NewPortType("v").Msg("x"), 4)
	reply := g.MustNewPort(echoReplyType, 4)
	g.RemovePort(victim)
	if err := drv.SendReplyTo(victim.Name(), reply.Name(), "x"); err != nil {
		t.Fatal(err)
	}
	m, st := drv.Receive(2*time.Second, reply)
	if st != RecvOK || !m.IsFailure() {
		t.Fatalf("removed port: %v %v", st, m)
	}
}

func TestSetStateVisibleAcrossGoroutines(t *testing.T) {
	w := NewWorld(Config{})
	n := w.MustAddNode("n")
	g, _, err := n.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	if g.State() != nil {
		t.Fatal("fresh guardian has state")
	}
	done := make(chan any, 1)
	g.SetState(42)
	go func() { done <- g.State() }()
	if v := <-done; v != 42 {
		t.Fatalf("State = %v", v)
	}
}
