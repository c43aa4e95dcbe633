package guardian

import (
	"testing"
	"time"

	"repro/internal/xrep"
)

var interceptPT = NewPortType("intercept_test_port").
	Msg("session", xrep.KindString).
	Msg("app", xrep.KindString)

// TestInterceptConsumesOwnedCommands: a hook owning "session" sees those
// messages before arm dispatch, and its commands need no arm.
func TestInterceptConsumesOwnedCommands(t *testing.T) {
	w := NewWorld(Config{})
	n := w.MustAddNode("n")
	sessions := make(chan string, 8)
	apps := make(chan string, 8)
	w.MustRegister(&GuardianDef{
		TypeName: "interceptee",
		Provides: []*PortType{interceptPT},
		Init: func(ctx *Ctx) {
			NewReceiver(ctx.Ports[0]).
				Intercept(func(pr *Process, m *Message) bool {
					sessions <- m.Str(0)
					return true
				}, "session").
				When("app", func(pr *Process, m *Message) {
					apps <- m.Str(0)
				}).
				Loop(ctx.Proc, nil)
		},
	})
	created, err := n.Bootstrap("interceptee")
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := n.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	if err := drv.Send(created.Ports[0], "session", "s1"); err != nil {
		t.Fatal(err)
	}
	if err := drv.Send(created.Ports[0], "app", "a1"); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-sessions:
		if got != "s1" {
			t.Fatalf("hook saw %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hook never ran")
	}
	select {
	case got := <-apps:
		if got != "a1" {
			t.Fatalf("arm saw %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("arm never ran")
	}
}

// TestInterceptDeclinedFallsThrough: a hook that returns false hands the
// message to the arm; without an arm the message is quietly discarded.
func TestInterceptDeclinedFallsThrough(t *testing.T) {
	w := NewWorld(Config{})
	n := w.MustAddNode("n")
	arm := make(chan string, 8)
	w.MustRegister(&GuardianDef{
		TypeName: "decliner",
		Provides: []*PortType{interceptPT},
		Init: func(ctx *Ctx) {
			NewReceiver(ctx.Ports[0]).
				Intercept(func(pr *Process, m *Message) bool {
					return m.Str(0) == "mine"
				}, "session", "app").
				When("app", func(pr *Process, m *Message) {
					arm <- m.Str(0)
				}).
				Loop(ctx.Proc, nil)
		},
	})
	created, err := n.Bootstrap("decliner")
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := n.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	// Declined "session" has no arm: discarded without a panic.
	if err := drv.Send(created.Ports[0], "session", "notmine"); err != nil {
		t.Fatal(err)
	}
	// Declined "app" reaches the arm.
	if err := drv.Send(created.Ports[0], "app", "notmine"); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-arm:
		if got != "notmine" {
			t.Fatalf("arm saw %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("declined message never reached the arm")
	}
}

// TestInterceptRejectsUndeclaredCommand: owning a command no listed port
// declares is a construction-time error, matching When.
func TestInterceptRejectsUndeclaredCommand(t *testing.T) {
	w := NewWorld(Config{})
	n := w.MustAddNode("n")
	g, _, err := n.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	p := g.MustNewPort(interceptPT, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Intercept accepted an undeclared command")
		}
	}()
	NewReceiver(p).Intercept(func(*Process, *Message) bool { return true }, "nope")
}
