package watchdog_test

import (
	"fmt"
	"time"

	"repro/internal/guardian"
	"repro/internal/nameserv"
	"repro/internal/watchdog"
	"repro/internal/xrep"
)

// Example_failover is operator-led failover: two replicas of an echo
// service, a name binding to the first, and a watchdog over both nodes.
// When the first node crashes, the watchdog's node_down event drives the
// operator's rebind, and a client that resolves the name before each call
// reaches the survivor.
func Example_failover() {
	echoType := guardian.NewPortType("echo_port").
		Msg("echo", xrep.KindString).
		Replies("echo", "echoed")
	echoReply := guardian.NewPortType("echo_reply_port").Msg("echoed", xrep.KindString)

	w := guardian.NewWorld(guardian.Config{})
	defer w.Close()
	w.MustRegister(nameserv.Def())
	w.MustRegister(watchdog.Def())
	w.MustRegister(&guardian.GuardianDef{
		TypeName: "echo",
		Provides: []*guardian.PortType{echoType},
		Init: func(ctx *guardian.Ctx) {
			who := ctx.Args[0].(xrep.Str)
			guardian.NewReceiver(ctx.Ports[0]).
				When("echo", func(pr *guardian.Process, m *guardian.Message) {
					_ = pr.Send(m.ReplyTo, "echoed", m.Str(0)+" from "+string(who))
				}).
				Loop(ctx.Proc, nil)
		},
	})
	infra := w.MustAddNode("infra")
	ns, _ := infra.Bootstrap(nameserv.DefName)
	wd, _ := infra.Bootstrap(watchdog.DefName, int64(20), int64(2))
	nodeA := w.MustAddNode("node-a")
	repA, _ := nodeA.Bootstrap("echo", "replica-A")
	repB, _ := w.MustAddNode("node-b").Bootstrap("echo", "replica-B")

	// The operator binds the service to A and subscribes to node events.
	g, op, _ := w.MustAddNode("ops").NewDriver("operator")
	names, _ := nameserv.NewClient(op, ns.Ports[0])
	_, _ = names.Register("echo-service", repA.Ports[0], 5*time.Second)
	wdReply := g.MustNewPort(watchdog.ClientReplyType, 8)
	events := g.MustNewPort(watchdog.EventPortType, 32)
	for _, call := range [][]any{{"watch", "node-a"}, {"watch", "node-b"}, {"subscribe", events.Name()}} {
		_ = op.SendReplyTo(wd.Ports[0], wdReply.Name(), call[0].(string), call[1:]...)
		op.Receive(5*time.Second, wdReply)
	}

	cg, client, _ := w.MustAddNode("client").NewDriver("user")
	lookups, _ := nameserv.NewClient(client, ns.Ports[0])
	reply := cg.MustNewPort(echoReply, 8)
	callService := func(msg string) {
		port, _, err := lookups.Lookup("echo-service", 5*time.Second)
		if err != nil {
			fmt.Println("lookup:", err)
			return
		}
		_ = client.SendReplyTo(port, reply.Name(), "echo", msg)
		if m, st := client.Receive(5*time.Second, reply); st == guardian.RecvOK {
			fmt.Println(m.Str(0))
		}
	}

	callService("hello")
	nodeA.Crash()
	for {
		m, st := op.Receive(5*time.Second, events)
		if st != guardian.RecvOK {
			fmt.Println("no node_down event:", st)
			return
		}
		if m.Command == "node_down" && m.Str(0) == "node-a" {
			break
		}
	}
	_, _ = names.Register("echo-service", repB.Ports[0], 5*time.Second)
	callService("hello again")
	// Output:
	// hello from replica-A
	// hello again from replica-B
}
