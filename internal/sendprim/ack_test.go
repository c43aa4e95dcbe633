package sendprim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/guardian"
	"repro/internal/xrep"
)

// TestAckPortTagging locks in the regression the tagged ack record exists
// to prevent: only a trailing record named "sendprim/ack" wrapping exactly
// one port marks a sync send. In particular, a message whose last REAL
// argument happens to be a plain port must never be mistaken for one —
// stripping it would eat an application argument.
func TestAckPortTagging(t *testing.T) {
	port := xrep.PortName{Node: "n", Guardian: 3, Port: 7}
	tagged := AckArg(port)

	cases := []struct {
		name     string
		args     xrep.Seq
		wantAck  bool
		wantKeep int // len(StripAck result)
	}{
		{
			name:     "tagged record is recognized and stripped",
			args:     xrep.Seq{xrep.Str("payload"), tagged},
			wantAck:  true,
			wantKeep: 1,
		},
		{
			name:     "tagged record as the only argument",
			args:     xrep.Seq{tagged},
			wantAck:  true,
			wantKeep: 0,
		},
		{
			name:     "trailing plain port is an application argument",
			args:     xrep.Seq{xrep.Str("register"), port},
			wantAck:  false,
			wantKeep: 2,
		},
		{
			name:     "no arguments",
			args:     xrep.Seq{},
			wantAck:  false,
			wantKeep: 0,
		},
		{
			name:     "record with a foreign name is kept",
			args:     xrep.Seq{xrep.Rec{Name: "app/ack", Fields: xrep.Seq{port}}},
			wantAck:  false,
			wantKeep: 1,
		},
		{
			name:     "right name, wrong arity is kept",
			args:     xrep.Seq{xrep.Rec{Name: ackRecName, Fields: xrep.Seq{port, port}}},
			wantAck:  false,
			wantKeep: 1,
		},
		{
			name:     "right name, field is not a port",
			args:     xrep.Seq{xrep.Rec{Name: ackRecName, Fields: xrep.Seq{xrep.Str("x")}}},
			wantAck:  false,
			wantKeep: 1,
		},
		{
			name:     "tagged record not in trailing position is kept",
			args:     xrep.Seq{tagged, xrep.Str("payload")},
			wantAck:  false,
			wantKeep: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := &guardian.Message{Command: "work", Args: tc.args}
			got, ok := ackPort(m)
			if ok != tc.wantAck {
				t.Fatalf("ackPort ok = %v, want %v", ok, tc.wantAck)
			}
			if ok && got != port {
				t.Fatalf("ackPort = %v, want %v", got, port)
			}
			stripped := StripAck(m)
			if len(stripped) != tc.wantKeep {
				t.Fatalf("StripAck kept %d args, want %d (%v)", len(stripped), tc.wantKeep, stripped)
			}
			if !tc.wantAck && !reflect.DeepEqual(stripped, tc.args) {
				t.Fatalf("StripAck changed a non-sync message: %v -> %v", tc.args, stripped)
			}
			if err := Acknowledge(noopProcess(), m); (err == nil) != tc.wantAck {
				t.Fatalf("Acknowledge err = %v, want success=%v", err, tc.wantAck)
			}
		})
	}
}

// noopProcess builds a throwaway world/process for Acknowledge's send; the
// destination port does not exist, which is fine — Acknowledge's send is
// no-wait and the test only cares whether the tag was recognized.
func noopProcess() *guardian.Process {
	w := guardian.NewWorld(guardian.Config{})
	_, pr, err := w.MustAddNode("t").NewDriver("t")
	if err != nil {
		panic(err)
	}
	return pr
}

// TestSyncSendKeepsTrailingPortArgument is the live half of the
// regression lock: a no-wait message whose final declared argument is a
// plain port travels the real wire and must arrive un-stripped, with
// ackPort reporting not-a-sync-send.
func TestSyncSendKeepsTrailingPortArgument(t *testing.T) {
	regType := guardian.NewPortType("reg_port").
		Msg("register", xrep.KindString, xrep.KindPortName)
	got := make(chan xrep.Seq, 1)
	w := guardian.NewWorld(guardian.Config{})
	srv := w.MustAddNode("srv")
	cli := w.MustAddNode("cli")
	w.MustRegister(&guardian.GuardianDef{
		TypeName: "registrar",
		Provides: []*guardian.PortType{regType},
		Init: func(ctx *guardian.Ctx) {
			guardian.NewReceiver(ctx.Ports[0]).
				When("register", func(pr *guardian.Process, m *guardian.Message) {
					if _, ok := ackPort(m); ok {
						t.Error("plain trailing port was mistaken for a sync-send ack")
					}
					got <- StripAck(m)
				}).
				Loop(ctx.Proc, nil)
		},
	})
	created, err := srv.Bootstrap("registrar")
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := cli.NewDriver("client")
	if err != nil {
		t.Fatal(err)
	}
	callback := xrep.PortName{Node: "cli", Guardian: 42, Port: 1}
	if err := drv.Send(created.Ports[0], "register", "svc", callback); err != nil {
		t.Fatal(err)
	}
	select {
	case args := <-got:
		if len(args) != 2 {
			t.Fatalf("receiver saw %d args, want 2 (%v)", len(args), args)
		}
		if p, ok := args[1].(xrep.PortName); !ok || p != callback {
			t.Fatalf("trailing port argument corrupted: %v", args[1])
		}
	case <-time.After(2 * time.Second):
		t.Fatal("register message never arrived")
	}
}
