package nameserv

import (
	"testing"
	"time"

	"repro/internal/guardian"
	"repro/internal/netsim"
	"repro/internal/xrep"
)

const testTimeout = 5 * time.Second

func deploy(t *testing.T) (*guardian.World, xrep.PortName, *Client, *guardian.Node) {
	t.Helper()
	w := guardian.NewWorld(guardian.Config{})
	w.MustRegister(Def())
	nsNode := w.MustAddNode("registry")
	created, err := nsNode.Bootstrap(DefName)
	if err != nil {
		t.Fatal(err)
	}
	cliNode := w.MustAddNode("app")
	_, proc, err := cliNode.NewDriver("svc")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(proc, created.Ports[0])
	if err != nil {
		t.Fatal(err)
	}
	return w, created.Ports[0], c, nsNode
}

func somePort(node string, g, p uint64) xrep.PortName {
	return xrep.PortName{Node: node, Guardian: g, Port: p}
}

func TestRegisterLookup(t *testing.T) {
	_, _, c, _ := deploy(t)
	target := somePort("app", 7, 1)
	v, err := c.Register("airline/east", target, testTimeout)
	if err != nil || v != 1 {
		t.Fatalf("register: v=%d err=%v", v, err)
	}
	got, gv, err := c.Lookup("airline/east", testTimeout)
	if err != nil || got != target || gv != 1 {
		t.Fatalf("lookup: %v v=%d err=%v", got, gv, err)
	}
}

func TestLookupUnbound(t *testing.T) {
	_, _, c, _ := deploy(t)
	_, _, err := c.Lookup("ghost", testTimeout)
	if err == nil {
		t.Fatal("lookup of unbound name succeeded")
	}
	if nserr, ok := err.(*Error); !ok || nserr.Outcome != OutcomeNotBound {
		t.Fatalf("err = %v, want not_bound", err)
	}
}

// TestLookupIgnoresLateReplyToEarlierCall: replies carry no correlation id,
// so a reply that arrives after its call timed out must not answer the next
// call. The registry's replies take 50ms; the first lookup gives up at 10ms.
func TestLookupIgnoresLateReplyToEarlierCall(t *testing.T) {
	w, _, c, _ := deploy(t)
	a, b := somePort("app", 7, 1), somePort("app", 8, 1)
	for name, p := range map[string]xrep.PortName{"a": a, "b": b} {
		if _, err := c.Register(name, p, testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	w.Net().SetLink("registry", "app", &netsim.Config{BaseLatency: 50 * time.Millisecond})
	if _, _, err := c.Lookup("a", 10*time.Millisecond); err == nil || err.(*Error).Outcome != "timeout" {
		t.Fatalf("lookup a over a 50ms link with a 10ms timeout: err = %v, want timeout", err)
	}
	got, _, err := c.Lookup("b", testTimeout)
	if err != nil || got != b {
		t.Fatalf("lookup b -> %v (err %v), want %v: a's late reply answered b's question", got, err, b)
	}
}

func TestRebindBumpsVersion(t *testing.T) {
	_, _, c, _ := deploy(t)
	if _, err := c.Register("svc", somePort("app", 1, 1), testTimeout); err != nil {
		t.Fatal(err)
	}
	v, err := c.Register("svc", somePort("app", 2, 1), testTimeout)
	if err != nil || v != 2 {
		t.Fatalf("rebind: v=%d err=%v", v, err)
	}
	port, gv, err := c.Lookup("svc", testTimeout)
	if err != nil || port.Guardian != 2 || gv != 2 {
		t.Fatalf("lookup after rebind: %v v=%d", port, gv)
	}
}

func TestOnlyOwnerMayRebindOrDrop(t *testing.T) {
	w, ns, c, _ := deploy(t)
	if _, err := c.Register("mine", somePort("app", 1, 1), testTimeout); err != nil {
		t.Fatal(err)
	}
	// A different principal on another node.
	other := w.MustAddNode("intruder")
	_, proc2, err := other.NewDriver("x")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewClient(proc2, ns)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Register("mine", somePort("intruder", 9, 9), testTimeout); err == nil {
		t.Fatal("foreign rebind succeeded")
	}
	if err := c2.Unregister("mine", testTimeout); err == nil {
		t.Fatal("foreign unregister succeeded")
	}
	// The owner can still manage it.
	if err := c.Unregister("mine", testTimeout); err != nil {
		t.Fatalf("owner unregister: %v", err)
	}
	if err := c.Unregister("mine", testTimeout); err == nil {
		t.Fatal("double unregister succeeded")
	}
}

func TestRegistryNodeMayManageAnyBinding(t *testing.T) {
	w, ns, c, nsNode := deploy(t)
	_ = w
	if _, err := c.Register("svc", somePort("app", 1, 1), testTimeout); err != nil {
		t.Fatal(err)
	}
	// The owner of the registry's node exercises physical control.
	_, admin, err := nsNode.NewDriver("admin")
	if err != nil {
		t.Fatal(err)
	}
	ca, err := NewClient(admin, ns)
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Unregister("svc", testTimeout); err != nil {
		t.Fatalf("registry-node admin unregister: %v", err)
	}
}

func TestList(t *testing.T) {
	_, _, c, _ := deploy(t)
	names := []string{"a", "b", "c"}
	for i, n := range names {
		if _, err := c.Register(n, somePort("app", uint64(i+1), 1), testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.List(testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("List = %v", got)
	}
	for i, n := range names {
		if got[n].Guardian != uint64(i+1) {
			t.Fatalf("List[%s] = %v", n, got[n])
		}
	}
}

func TestBindingsSurviveCrash(t *testing.T) {
	_, _, c, nsNode := deploy(t)
	target := somePort("app", 3, 2)
	if _, err := c.Register("durable", target, testTimeout); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("durable", target, testTimeout); err != nil {
		t.Fatal(err) // bump to v2
	}
	if _, err := c.Register("gone", somePort("app", 4, 1), testTimeout); err != nil {
		t.Fatal(err)
	}
	if err := c.Unregister("gone", testTimeout); err != nil {
		t.Fatal(err)
	}
	nsNode.Crash()
	if err := nsNode.Restart(); err != nil {
		t.Fatal(err)
	}
	port, v, err := c.Lookup("durable", testTimeout)
	if err != nil || port != target || v != 2 {
		t.Fatalf("after recovery: %v v=%d err=%v", port, v, err)
	}
	if _, _, err := c.Lookup("gone", testTimeout); err == nil {
		t.Fatal("dropped binding resurrected by recovery")
	}
	// Ownership also recovers: the original owner can still rebind.
	if v, err := c.Register("durable", somePort("app", 5, 1), testTimeout); err != nil || v != 3 {
		t.Fatalf("owner rebind after recovery: v=%d err=%v", v, err)
	}
}

func TestEndToEndDiscovery(t *testing.T) {
	// The full pattern: a service registers itself, an unrelated client
	// discovers it by name and talks to it.
	w := guardian.NewWorld(guardian.Config{})
	w.MustRegister(Def())
	echoType := guardian.NewPortType("echo_port").
		Msg("echo", xrep.KindString).Replies("echo", "echoed")
	echoReply := guardian.NewPortType("echo_reply").Msg("echoed", xrep.KindString)
	w.MustRegister(&guardian.GuardianDef{
		TypeName: "echo",
		Provides: []*guardian.PortType{echoType},
		Init: func(ctx *guardian.Ctx) {
			// The service registers its own port at startup; the name
			// service's port arrives as a creation argument.
			if len(ctx.Args) == 1 {
				if nsPort, ok := ctx.Args[0].(xrep.PortName); ok {
					if cl, err := NewClient(ctx.Proc, nsPort); err == nil {
						_, _ = cl.Register("echo-service", ctx.Ports[0].Name(), testTimeout)
					}
				}
			}
			guardian.NewReceiver(ctx.Ports[0]).
				When("echo", func(pr *guardian.Process, m *guardian.Message) {
					if !m.ReplyTo.IsZero() {
						_ = pr.Send(m.ReplyTo, "echoed", m.Str(0))
					}
				}).
				Loop(ctx.Proc, nil)
		},
	})
	registry := w.MustAddNode("registry")
	nsCreated, err := registry.Bootstrap(DefName)
	if err != nil {
		t.Fatal(err)
	}
	svcNode := w.MustAddNode("svc")
	if _, err := svcNode.Bootstrap("echo", nsCreated.Ports[0]); err != nil {
		t.Fatal(err)
	}
	cliNode := w.MustAddNode("cli")
	g, proc, err := cliNode.NewDriver("user")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(proc, nsCreated.Ports[0])
	if err != nil {
		t.Fatal(err)
	}
	// Discover (the service registers asynchronously; poll briefly).
	var echoPort xrep.PortName
	deadline := time.Now().Add(2 * time.Second)
	for {
		if p, _, err := c.Lookup("echo-service", testTimeout); err == nil {
			echoPort = p
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("service never registered itself")
		}
		time.Sleep(5 * time.Millisecond)
	}
	reply := g.MustNewPort(echoReply, 4)
	if err := proc.SendReplyTo(echoPort, reply.Name(), "echo", "found you"); err != nil {
		t.Fatal(err)
	}
	m, st := proc.Receive(testTimeout, reply)
	if st != guardian.RecvOK || m.Str(0) != "found you" {
		t.Fatalf("discovered service: %v %v", st, m)
	}
}

func TestFormatParsePort(t *testing.T) {
	cases := []xrep.PortName{
		{Node: "alpha", Guardian: 1, Port: 1},
		{Node: "branch-east", Guardian: 42, Port: 7},
		{Node: "a/b", Guardian: 2, Port: 3}, // '/' in node: parse still splits on the LAST two
	}
	for _, want := range cases {
		got, err := ParsePort(FormatPort(want))
		if err != nil {
			t.Fatalf("%v: %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip: %v != %v", got, want)
		}
	}
	for _, bad := range []string{"", "alpha", "alpha/1", "/1/2", "alpha/x/2", "alpha/1/y", "alpha/0/1", "alpha/1/0"} {
		if _, err := ParsePort(bad); err == nil {
			t.Fatalf("ParsePort(%q) succeeded", bad)
		}
	}
}
