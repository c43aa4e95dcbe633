// Failover example: the service-infrastructure guardians working together.
// Two replicas of an echo service on different nodes register themselves
// with a name-service guardian; a watchdog guardian monitors both nodes;
// when the primary's node crashes, the operator rebinds the service name
// to the surviving replica and clients keep working — all of it built on
// the paper's primitives (typed ports, no-wait send, timeouts, recovery).
//
// Run with: go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/guardian"
	"repro/internal/nameserv"
	"repro/internal/watchdog"
	"repro/internal/xrep"
)

const timeout = 5 * time.Second

var echoType = guardian.NewPortType("echo_port").
	Msg("echo", xrep.KindString).
	Replies("echo", "echoed")

var echoReply = guardian.NewPortType("echo_reply_port").
	Msg("echoed", xrep.KindString)

func main() {
	w := guardian.NewWorld(guardian.Config{})
	w.MustRegister(nameserv.Def())
	w.MustRegister(watchdog.Def())
	w.MustRegister(&guardian.GuardianDef{
		TypeName: "echo",
		Provides: []*guardian.PortType{echoType},
		Init: func(ctx *guardian.Ctx) {
			f := xrep.ReadFields(ctx.Args, 1)
			who := f.Str()
			if f.Err() != nil {
				who = "replica"
			}
			guardian.NewReceiver(ctx.Ports[0]).
				When("echo", func(pr *guardian.Process, m *guardian.Message) {
					if !m.ReplyTo.IsZero() {
						_ = pr.Send(m.ReplyTo, "echoed", m.Str(0)+" (from "+who+")")
					}
				}).
				WhenFailure(func(_ *guardian.Process, text string, _ *guardian.Message) {
					// §3.4: a discarded message named this port as its
					// replyto. Log it; clients retry on their own timeout.
					log.Printf("%s: failure report: %s", who, text)
				}).
				Loop(ctx.Proc, nil)
		},
	})

	// Infrastructure node: name service + watchdog.
	infra := w.MustAddNode("infra")
	ns, err := infra.Bootstrap(nameserv.DefName)
	if err != nil {
		log.Fatal(err)
	}
	wd, err := infra.Bootstrap(watchdog.DefName, int64(20), int64(2))
	if err != nil {
		log.Fatal(err)
	}

	// Two replicas on two nodes.
	nodeA := w.MustAddNode("node-a")
	repA, err := nodeA.Bootstrap("echo", "replica-A")
	if err != nil {
		log.Fatal(err)
	}
	nodeB := w.MustAddNode("node-b")
	repB, err := nodeB.Bootstrap("echo", "replica-B")
	if err != nil {
		log.Fatal(err)
	}

	// The operator: registers the primary, watches both nodes, subscribes
	// to liveness events, and rebinds on failure.
	opsNode := w.MustAddNode("ops")
	g, op, err := opsNode.NewDriver("operator")
	if err != nil {
		log.Fatal(err)
	}
	nsc, err := nameserv.NewClient(op, ns.Ports[0])
	if err != nil {
		log.Fatal(err)
	}
	if _, err := nsc.Register("echo-service", repA.Ports[0], timeout); err != nil {
		log.Fatal(err)
	}
	wdReply := g.MustNewPort(watchdog.ClientReplyType, 8)
	events := g.MustNewPort(watchdog.EventPortType, 32)
	wdCall := func(cmd string, args ...any) {
		if err := op.SendReplyTo(wd.Ports[0], wdReply.Name(), cmd, args...); err != nil {
			log.Fatal(err)
		}
		if _, st := op.Receive(timeout, wdReply); st != guardian.RecvOK {
			log.Fatalf("%s: %v", cmd, st)
		}
	}
	wdCall("watch", "node-a")
	wdCall("watch", "node-b")
	wdCall("subscribe", events.Name())

	// A client that always resolves the name before calling.
	cliNode := w.MustAddNode("client")
	cg, client, err := cliNode.NewDriver("user")
	if err != nil {
		log.Fatal(err)
	}
	cnsc, err := nameserv.NewClient(client, ns.Ports[0])
	if err != nil {
		log.Fatal(err)
	}
	reply := cg.MustNewPort(echoReply, 8)
	callService := func(msg string) string {
		port, _, err := cnsc.Lookup("echo-service", timeout)
		if err != nil {
			return "lookup failed: " + err.Error()
		}
		if err := client.SendReplyTo(port, reply.Name(), "echo", msg); err != nil {
			return "send failed"
		}
		m, st := client.Receive(time.Second, reply)
		if st != guardian.RecvOK {
			return "no answer (" + st.String() + ")"
		}
		if m.IsFailure() {
			return "failure: " + m.FailureText()
		}
		return m.Str(0)
	}

	fmt.Println("normal operation:")
	fmt.Println("  client ->", callService("hello"))

	fmt.Println("\nnode-a crashes:")
	nodeA.Crash()
	// The operator waits for the watchdog's down event, then fails over.
	for {
		m, st := op.Receive(timeout, events)
		if st != guardian.RecvOK {
			log.Fatal("no liveness event")
		}
		if m.Command == "node_down" && m.Str(0) == "node-a" {
			fmt.Println("  watchdog: node_down(node-a)")
			break
		}
	}
	if _, err := nsc.Register("echo-service", repB.Ports[0], timeout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  operator: rebound echo-service -> replica-B")
	fmt.Println("  client ->", callService("hello again"))

	fmt.Println("\nnode-a restarts (echo has no Recover, so A's replica is gone; B stays primary):")
	if err := nodeA.Restart(); err != nil {
		log.Fatal(err)
	}
	for {
		m, st := op.Receive(timeout, events)
		if st != guardian.RecvOK {
			break
		}
		if m.Command == "node_up" && m.Str(0) == "node-a" {
			fmt.Println("  watchdog: node_up(node-a)")
			break
		}
	}
	fmt.Println("  client ->", callService("still here?"))
}
