package airline

import (
	"fmt"
	"time"

	"repro/internal/guardian"
	"repro/internal/xrep"
)

// UIDefName is the library name of the user-interface guardian (U_j).
const UIDefName = "airline_ui"

// uiState is the interface guardian's objects: the directory mapping
// flight numbers to regional manager ports, and the reply deadline used by
// transaction processes (the paper's expression e, "a delay long enough to
// permit the request to complete under reasonable circumstances").
type uiState struct {
	directory map[int64]xrep.PortName
	deadline  time.Duration
}

// UIDef returns the user-interface guardian definition. Creation
// arguments:
//
//	directory   Seq of Seq{Int flight_no, PortName regional_port}
//	deadline_ms Int — the timeout expression e of Figure 5, milliseconds
//
// The guardian "guards the entire airline data base and provides
// transactions that consist of sequences of requests": begin_transaction
// forks a process to handle a transaction for a single customer (Figure
// 5's do_trans), whose private port name is returned to the clerk.
//
// The definition has no Recover on purpose: §3.5 chooses "to forget
// transactions rather than to try and finish them after a crash" — after a
// restart the node owner re-creates the interface guardian fresh, and
// clerks start new transactions.
func UIDef() *guardian.GuardianDef {
	return &guardian.GuardianDef{
		TypeName: UIDefName,
		Provides: []*guardian.PortType{UIPortType},
		Init:     uiMain,
	}
}

func uiArgs(args xrep.Seq) (*uiState, error) {
	f := xrep.ReadFields(args, 2)
	dir, deadlineMS := f.Seq(), f.Int()
	if err := f.Err(); err != nil {
		return nil, fmt.Errorf("airline: ui guardian args (directory, deadline ms): %w", err)
	}
	st := &uiState{
		directory: make(map[int64]xrep.PortName),
		deadline:  time.Duration(deadlineMS) * time.Millisecond,
	}
	for _, e := range dir {
		f := xrep.ReadSeq(e, 2)
		no, port := f.Int(), f.Port()
		if err := f.Err(); err != nil {
			return nil, fmt.Errorf("airline: directory entry: %w", err)
		}
		st.directory[no] = port
	}
	return st, nil
}

// DirectoryArg builds the ui guardian's directory creation argument.
func DirectoryArg(entries map[int64]xrep.PortName) xrep.Seq {
	out := make(xrep.Seq, 0, len(entries))
	for no, port := range entries {
		out = append(out, xrep.Seq{xrep.Int(no), port})
	}
	return out
}

func uiMain(ctx *guardian.Ctx) {
	st, err := uiArgs(ctx.Args)
	if err != nil {
		ctx.G.SelfDestruct()
		return
	}
	ctx.G.SetState(st)
	g := ctx.G
	// No failure arm: each transaction process owns its talk with the clerk.
	guardian.NewReceiver(ctx.Ports[0]).
		When("begin_transaction", func(pr *guardian.Process, m *guardian.Message) {
			if m.ReplyTo.IsZero() {
				return
			}
			passenger := m.Str(0)
			clerk := m.ReplyTo
			transPort, err := g.NewPort(TransPortType, 16)
			if err != nil {
				return
			}
			g.Spawn("do_trans", func(q *guardian.Process) {
				doTrans(q, st, transPort, clerk, passenger)
			})
			_ = pr.Send(clerk, "trans", transPort.Name())
		}).
		Loop(ctx.Proc, nil)
}

// transEntry is one history item of a transaction (the paper's
// trans_history data abstraction).
type transEntry struct {
	op     string // "reserve" (performed) or "cancel" (pending)
	flight int64
	date   string
}

// doTrans is Figure 5's do_trans procedure: it handles one transaction
// with a clerk. Reserves are performed immediately and their results
// reported; cancels are saved until the transaction finishes "to permit
// the customer a late change of mind"; undo_last undoes the most recent
// request (an unwanted reservation is undone by a cancel, a pending cancel
// is simply dropped); done performs all saved cancels and ends the
// process.
func doTrans(q *guardian.Process, st *uiState, transPort *guardian.Port, clerk xrep.PortName, passenger string) {
	g := q.Guardian()
	defer g.RemovePort(transPort)

	var history []transEntry

	// perform sends one request to the region owning the flight and waits
	// for the outcome on a fresh reply port, timing out after the deadline
	// expression e. After a timeout "nothing is known about the true state
	// of affairs" — the outcome string reflects that.
	perform := func(op string, flight int64, date string) string {
		region, ok := st.directory[flight]
		if !ok {
			return OutcomeIllegal
		}
		s, err := g.NewPort(ClientReplyType, 4)
		if err != nil {
			return OutcomeIllegal
		}
		defer g.RemovePort(s)
		if err := q.SendReplyTo(region, s.Name(), op, flight, passenger, date); err != nil {
			return OutcomeIllegal
		}
		m, status := q.Receive(st.deadline, s)
		switch status {
		case guardian.RecvOK:
			if m.IsFailure() {
				return "can't communicate"
			}
			return m.Command
		case guardian.RecvTimeout:
			return "can't communicate"
		default:
			return "killed"
		}
	}

	report := func(cmd string, args ...any) {
		_ = q.Send(clerk, cmd, args...)
	}

	finished := false
	rcv := guardian.NewReceiver(transPort).
		When("reserve", func(_ *guardian.Process, m *guardian.Message) {
			flight, date := m.Int(0), m.Str(1)
			outcome := perform("reserve", flight, date)
			if outcome == OutcomeOK || outcome == OutcomeWaitList {
				history = append(history, transEntry{op: "reserve", flight: flight, date: date})
			}
			report("result", "reserve", flight, date, outcome)
		}).
		When("cancel", func(_ *guardian.Process, m *guardian.Message) {
			// "Cancel requests are not done immediately ... but are
			// processed at the time the transaction finishes."
			flight, date := m.Int(0), m.Str(1)
			if _, ok := st.directory[flight]; !ok {
				report("result", "cancel", flight, date, OutcomeIllegal)
				return
			}
			history = append(history, transEntry{op: "cancel", flight: flight, date: date})
			report("result", "cancel", flight, date, OutcomeDeferred)
		}).
		When("undo_last", func(_ *guardian.Process, m *guardian.Message) {
			if len(history) == 0 {
				report("nothing_to_undo")
				return
			}
			last := history[len(history)-1]
			history = history[:len(history)-1]
			switch last.op {
			case "reserve":
				// "An unwanted reservation can be undone by a cancel."
				outcome := perform("cancel", last.flight, last.date)
				report("undone", "reserve", last.flight, last.date)
				_ = outcome
			case "cancel":
				// A pending cancel simply leaves the history.
				report("undone", "cancel", last.flight, last.date)
			}
		}).
		When("done", func(_ *guardian.Process, m *guardian.Message) {
			// Perform all saved cancels, then finish.
			reserves, cancels := 0, 0
			for _, e := range history {
				switch e.op {
				case "reserve":
					reserves++
				case "cancel":
					perform("cancel", e.flight, e.date)
					cancels++
				}
			}
			report("trans_done", reserves, cancels)
			finished = true // "this terminates the process"
		}).
		WhenFailure(func(_ *guardian.Process, _ string, _ *guardian.Message) {
			// §3.4 failure arm: a clerk request named the transaction port
			// as its replyto and was discarded — or the clerk's own port
			// vanished. Abandon the transaction; its saved cancels die with
			// it, exactly as an unfinished paper transaction would.
			finished = true
		})

	for !finished {
		if rcv.RunOnce(q) == guardian.RecvKilled {
			return
		}
	}
}
