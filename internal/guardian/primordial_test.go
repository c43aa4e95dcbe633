package guardian

import (
	"testing"
	"time"

	"repro/internal/xrep"
)

// requestCreate sends a create request to node's primordial guardian and
// returns the reply message.
func requestCreate(t *testing.T, drv *Process, node string, defName string, args xrep.Seq) (*Message, RecvStatus) {
	t.Helper()
	reply := drv.Guardian().MustNewPort(CreatedReplyType, 4)
	defer drv.Guardian().RemovePort(reply)
	if args == nil {
		args = xrep.Seq{}
	}
	if err := drv.SendCheckedReplyTo(PrimordialType, PrimordialPort(node), reply.Name(),
		"create", defName, args); err != nil {
		t.Fatal(err)
	}
	return drv.Receive(2*time.Second, reply)
}

func TestRemoteCreateViaPrimordial(t *testing.T) {
	w, a, b := newWorld(t, Config{})
	registerEcho(t, w)
	_ = a
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	m, st := requestCreate(t, drv, "alpha", "echo", nil)
	if st != RecvOK {
		t.Fatalf("status %v", st)
	}
	if m.Command != "created" {
		t.Fatalf("reply %s(%v)", m.Command, m.Args)
	}
	ports, ok := m.Args[0].(xrep.Seq)
	if !ok || len(ports) != 1 {
		t.Fatalf("created ports = %v", m.Args[0])
	}
	echoPort, ok := ports[0].(xrep.PortName)
	if !ok || echoPort.Node != "alpha" {
		t.Fatalf("created port %v, want one on alpha", ports[0])
	}
	// The created guardian works.
	reply := drv.Guardian().MustNewPort(echoReplyType, 4)
	if err := drv.SendReplyTo(echoPort, reply.Name(), "echo", "hi"); err != nil {
		t.Fatal(err)
	}
	if m, st := drv.Receive(2*time.Second, reply); st != RecvOK || m.Str(0) != "hi" {
		t.Fatalf("remote-created echo failed: %v", st)
	}
}

func TestRemoteCreateUnknownDefFails(t *testing.T) {
	_, _, b := newWorld(t, Config{})
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	m, st := requestCreate(t, drv, "alpha", "mystery", nil)
	if st != RecvOK || !m.IsFailure() {
		t.Fatalf("want failure, got %v %v", st, m)
	}
}

func TestAutonomyPolicyDeniesCreation(t *testing.T) {
	w, a, b := newWorld(t, Config{})
	registerEcho(t, w)
	// The alpha owner permits no remote creations at all.
	a.SetCreatePolicy(func(srcNode string, srcGuardian uint64, defName string) bool {
		return false
	})
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	m, st := requestCreate(t, drv, "alpha", "echo", nil)
	if st != RecvOK || !m.IsFailure() {
		t.Fatalf("denied creation should fail, got %v %v", st, m)
	}
	if m.FailureText() != "creation not permitted by node owner" {
		t.Fatalf("failure text %q", m.FailureText())
	}
	// Local (owner) creation is unaffected by the remote policy.
	if _, err := a.Bootstrap("echo"); err != nil {
		t.Fatalf("owner's own creation blocked: %v", err)
	}
}

func TestAutonomyPolicySelective(t *testing.T) {
	w, a, b := newWorld(t, Config{})
	registerEcho(t, w)
	w.MustRegister(&GuardianDef{
		TypeName: "other",
		Init:     func(ctx *Ctx) {},
	})
	a.SetCreatePolicy(func(srcNode string, srcGuardian uint64, defName string) bool {
		return defName == "echo" && srcNode == "beta"
	})
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	if m, st := requestCreate(t, drv, "alpha", "echo", nil); st != RecvOK || m.Command != "created" {
		t.Fatalf("permitted creation failed: %v", m)
	}
	if m, st := requestCreate(t, drv, "alpha", "other", nil); st != RecvOK || !m.IsFailure() {
		t.Fatalf("unpermitted def created: %v", m)
	}
}

func TestPrimordialPing(t *testing.T) {
	_, _, b := newWorld(t, Config{})
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	reply := drv.Guardian().MustNewPort(CreatedReplyType, 4)
	if err := drv.SendCheckedReplyTo(PrimordialType, PrimordialPort("alpha"), reply.Name(), "ping"); err != nil {
		t.Fatal(err)
	}
	m, st := drv.Receive(2*time.Second, reply)
	if st != RecvOK || m.Command != "pong" {
		t.Fatalf("ping got %v/%v", st, m)
	}
}

func TestPrimordialSurvivesRestartAtSameName(t *testing.T) {
	w, a, b := newWorld(t, Config{})
	registerEcho(t, w)
	a.Crash()
	if err := a.Restart(); err != nil {
		t.Fatal(err)
	}
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	m, st := requestCreate(t, drv, "alpha", "echo", nil)
	if st != RecvOK || m.Command != "created" {
		t.Fatalf("primordial not reachable after restart: %v %v", st, m)
	}
}

func TestPrimordialCreateWithArgs(t *testing.T) {
	w, a, b := newWorld(t, Config{})
	_ = a
	argPort := NewPortType("arg_port").Msg("get").Replies("get", "value")
	w.MustRegister(&GuardianDef{
		TypeName: "greeter",
		Provides: []*PortType{argPort},
		Init: func(ctx *Ctx) {
			greeting := "none"
			if len(ctx.Args) == 1 {
				if s, ok := ctx.Args[0].(xrep.Str); ok {
					greeting = string(s)
				}
			}
			NewReceiver(ctx.Ports[0]).
				When("get", func(pr *Process, m *Message) {
					if !m.ReplyTo.IsZero() {
						_ = pr.Send(m.ReplyTo, "value", greeting)
					}
				}).
				Loop(ctx.Proc, nil)
		},
	})
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	m, st := requestCreate(t, drv, "alpha", "greeter", xrep.Seq{xrep.Str("hello from beta")})
	if st != RecvOK || m.Command != "created" {
		t.Fatalf("create failed: %v %v", st, m)
	}
	ports := m.Args[0].(xrep.Seq)
	valReply := drv.Guardian().MustNewPort(NewPortType("vr").Msg("value", xrep.KindString), 4)
	if err := drv.SendReplyTo(ports[0].(xrep.PortName), valReply.Name(), "get"); err != nil {
		t.Fatal(err)
	}
	vm, st := drv.Receive(2*time.Second, valReply)
	if st != RecvOK || vm.Str(0) != "hello from beta" {
		t.Fatalf("creation args lost: %v", vm)
	}
}
