package guardian

import (
	"testing"
	"time"

	"repro/internal/xrep"
)

func TestTokenSealUnseal(t *testing.T) {
	_, a, _ := newWorld(t, Config{})
	g, _, err := a.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	tok := g.Seal([]byte("flight-22-row-4"))
	body, err := g.Unseal(tok)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "flight-22-row-4" {
		t.Fatalf("unsealed %q", body)
	}
}

func TestTokenOnlyIssuerUnseals(t *testing.T) {
	_, a, b := newWorld(t, Config{})
	g1, _, err := a.NewDriver("d1")
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := b.NewDriver("d2")
	if err != nil {
		t.Fatal(err)
	}
	tok := g1.Seal([]byte("secret"))
	if _, err := g2.Unseal(tok); err == nil {
		t.Fatal("non-issuer unsealed a token")
	}
}

func TestTokenTamperDetected(t *testing.T) {
	_, a, _ := newWorld(t, Config{})
	g, _, err := a.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	tok := g.Seal([]byte("object-17"))
	tok.Body[0] ^= 0xFF
	if _, err := g.Unseal(tok); err == nil {
		t.Fatal("tampered token unsealed")
	}
	tok2 := g.Seal([]byte("object-17"))
	tok2.Seal[3] ^= 0x01
	if _, err := g.Unseal(tok2); err == nil {
		t.Fatal("token with forged seal unsealed")
	}
}

func TestTokenForgedIssuerRejected(t *testing.T) {
	_, a, _ := newWorld(t, Config{})
	g1, _, err := a.NewDriver("d1")
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := a.NewDriver("d2")
	if err != nil {
		t.Fatal(err)
	}
	tok := g1.Seal([]byte("x"))
	tok.Issuer = g2.ID() // claim another issuer
	if _, err := g2.Unseal(tok); err == nil {
		t.Fatal("token with forged issuer id unsealed")
	}
}

func TestTokenSurvivesRoundTripThroughMessage(t *testing.T) {
	w, a, b := newWorld(t, Config{})
	// tokensvc seals a name and returns the token; presenting the token
	// back retrieves the name.
	svcType := NewPortType("tok_port").
		Msg("make", xrep.KindString).Replies("make", "token").
		Msg("open", xrep.KindToken).Replies("open", "opened", FailureCommand)
	cliType := NewPortType("tok_cli_port").
		Msg("token", xrep.KindToken).
		Msg("opened", xrep.KindString)
	w.MustRegister(&GuardianDef{
		TypeName: "tokensvc",
		Provides: []*PortType{svcType},
		Init: func(ctx *Ctx) {
			NewReceiver(ctx.Ports[0]).
				When("make", func(pr *Process, m *Message) {
					tok := ctx.G.Seal([]byte(m.Str(0)))
					_ = pr.Send(m.ReplyTo, "token", tok)
				}).
				When("open", func(pr *Process, m *Message) {
					body, err := ctx.G.Unseal(m.Token(0))
					if err != nil {
						_ = pr.Send(m.ReplyTo, FailureCommand, "bad token")
						return
					}
					_ = pr.Send(m.ReplyTo, "opened", string(body))
				}).
				Loop(ctx.Proc, nil)
		},
	})
	created, err := a.Bootstrap("tokensvc")
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	reply := drv.Guardian().MustNewPort(cliType, 4)
	if err := drv.SendReplyTo(created.Ports[0], reply.Name(), "make", "doc-9"); err != nil {
		t.Fatal(err)
	}
	m, st := drv.Receive(2*time.Second, reply)
	if st != RecvOK || m.Command != "token" {
		t.Fatalf("make: %v %v", st, m)
	}
	tok := m.Token(0)
	// The holder cannot unseal it...
	if _, err := drv.Guardian().Unseal(tok); err == nil {
		t.Fatal("holder unsealed a foreign token")
	}
	// ...but presenting it back to the issuer works.
	if err := drv.SendReplyTo(created.Ports[0], reply.Name(), "open", tok); err != nil {
		t.Fatal(err)
	}
	m, st = drv.Receive(2*time.Second, reply)
	if st != RecvOK || m.Command != "opened" || m.Str(0) != "doc-9" {
		t.Fatalf("open: %v %v", st, m)
	}
}

func TestACLDenyByDefault(t *testing.T) {
	acl := NewACL()
	p := Principal{Node: "n", Guardian: 2}
	if acl.Permits(p, "reserve") {
		t.Fatal("empty ACL permitted a request")
	}
}

func TestACLAllowRevoke(t *testing.T) {
	acl := NewACL()
	p := Principal{Node: "n", Guardian: 2}
	acl.Allow(p, "reserve")
	if !acl.Permits(p, "reserve") {
		t.Fatal("allowed principal denied")
	}
	if acl.Permits(p, "list_passengers") {
		t.Fatal("grant leaked to another command")
	}
	if acl.Permits(Principal{Node: "n", Guardian: 3}, "reserve") {
		t.Fatal("grant leaked to another principal")
	}
	acl.Revoke(p, "reserve")
	if acl.Permits(p, "reserve") {
		t.Fatal("revoked principal still permitted")
	}
}

func TestACLAllowAll(t *testing.T) {
	acl := NewACL()
	acl.AllowAll("reserve")
	if !acl.Permits(Principal{Node: "any", Guardian: 77}, "reserve") {
		t.Fatal("AllowAll did not permit")
	}
}

func TestACLPermitsMessage(t *testing.T) {
	acl := NewACL()
	acl.Allow(Principal{Node: "beta", Guardian: 4}, "cancel")
	m := &Message{Command: "cancel", SrcNode: "beta", SrcGuardian: 4}
	if !acl.PermitsMessage(m) {
		t.Fatal("message from allowed principal denied")
	}
	m.SrcGuardian = 5
	if acl.PermitsMessage(m) {
		t.Fatal("message from other principal permitted")
	}
}

func TestReceiverWhenUnknownCommandPanics(t *testing.T) {
	_, a, _ := newWorld(t, Config{})
	g, _, err := a.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	p := g.MustNewPort(echoReplyType, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("When for undeclared command did not panic")
		}
	}()
	NewReceiver(p).When("undeclared", func(*Process, *Message) {})
}

func TestReceiverMissingArmPanicsAtRun(t *testing.T) {
	_, a, _ := newWorld(t, Config{})
	g, drv, err := a.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	p := g.MustNewPort(echoType, 4) // declares echo and shutdown
	r := NewReceiver(p).When("echo", func(*Process, *Message) {})
	defer func() {
		if recover() == nil {
			t.Fatal("receive with uncovered command did not panic")
		}
	}()
	r.RunOnce(drv)
}

func TestReceiverDuplicateArmPanics(t *testing.T) {
	_, a, _ := newWorld(t, Config{})
	g, _, err := a.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	p := g.MustNewPort(echoReplyType, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate arm did not panic")
		}
	}()
	NewReceiver(p).
		When("echoed", func(*Process, *Message) {}).
		When("echoed", func(*Process, *Message) {})
}

func TestReceiverFailureArm(t *testing.T) {
	w, _, b := newWorld(t, Config{})
	_ = w
	g, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	reply := g.MustNewPort(echoReplyType, 4)
	ghost := xrep.PortName{Node: "alpha", Guardian: 99, Port: 9}
	if err := drv.SendReplyTo(ghost, reply.Name(), "echoed", "x"); err != nil {
		t.Fatal(err)
	}
	gotFailure := ""
	NewReceiver(reply).
		When("echoed", func(*Process, *Message) { t.Error("echoed arm ran") }).
		WhenFailure(func(pr *Process, text string, m *Message) { gotFailure = text }).
		WhenTimeout(2*time.Second, func(*Process) { t.Error("timed out") }).
		RunOnce(drv)
	if gotFailure == "" {
		t.Fatal("failure arm did not run")
	}
}

func TestReceiverTimeoutArm(t *testing.T) {
	_, a, _ := newWorld(t, Config{})
	g, drv, err := a.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	p := g.MustNewPort(echoReplyType, 4)
	timedOut := false
	st := NewReceiver(p).
		When("echoed", func(*Process, *Message) {}).
		WhenTimeout(20*time.Millisecond, func(*Process) { timedOut = true }).
		RunOnce(drv)
	if st != RecvTimeout || !timedOut {
		t.Fatalf("status %v, timedOut %v", st, timedOut)
	}
}

func TestReceiverLoopStops(t *testing.T) {
	_, a, _ := newWorld(t, Config{})
	g, drv, err := a.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	p := g.MustNewPort(echoReplyType, 4)
	n := 0
	NewReceiver(p).
		When("echoed", func(*Process, *Message) {}).
		WhenTimeout(time.Millisecond, func(*Process) { n++ }).
		Loop(drv, func() bool { return n >= 3 })
	if n != 3 {
		t.Fatalf("loop ran %d times", n)
	}
}

func TestPortTypeValidation(t *testing.T) {
	pt := NewPortType("p").Msg("a", xrep.KindInt)
	if _, ok := pt.Spec("a"); !ok {
		t.Fatal("declared message missing")
	}
	if _, ok := pt.Spec(FailureCommand); !ok {
		t.Fatal("implicit failure message missing")
	}
	if _, ok := pt.Spec("zzz"); ok {
		t.Fatal("undeclared message present")
	}
	cmds := pt.Commands()
	if len(cmds) != 1 || cmds[0] != "a" {
		t.Fatalf("Commands = %v", cmds)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate Msg did not panic")
			}
		}()
		pt.Msg("a")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("declaring failure did not panic")
			}
		}()
		NewPortType("q").Msg(FailureCommand)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Replies for undeclared message did not panic")
			}
		}()
		NewPortType("r").Replies("ghost", "x")
	}()
}

func TestAnyKindWildcard(t *testing.T) {
	pt := NewPortType("p").Msg("put", xrep.KindString, AnyKind)
	if err := pt.check("put", xrep.Seq{xrep.Str("k"), xrep.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := pt.check("put", xrep.Seq{xrep.Str("k"), xrep.Rec{Name: "t", Fields: xrep.Seq{}}}); err != nil {
		t.Fatal(err)
	}
	if err := pt.check("put", xrep.Seq{xrep.Int(1), xrep.Int(2)}); err == nil {
		t.Fatal("non-wildcard position unchecked")
	}
}
