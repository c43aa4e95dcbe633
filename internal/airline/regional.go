package airline

import (
	"errors"
	"fmt"

	"repro/internal/guardian"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// RegionalDefName is the library name of the regional manager definition.
const RegionalDefName = "airline_regional"

// regionalState is the regional manager's objects: the directory mapping
// flight numbers to flight guardian ports (the paper's
// `directory = map[string, flight_port]`), plus the flight creation
// parameters and the access-control list for passenger listings.
type regionalState struct {
	org        string
	workCostUS int64
	capacity   int64
	relay      bool
	directory  map[int64]xrep.PortName
	acl        *guardian.ACL
}

// RegionalDef returns the regional manager guardian definition (Figures 2
// and 4). Creation arguments:
//
//	flights    Seq of Int — the region's initial flight numbers
//	capacity   Int        — seats per flight per date
//	org        Str        — flight guardian organization (Org* constant)
//	work_us    Int        — per-request simulated work, microseconds
//	relay      Bool       — when true, replies pass back through the
//	                        manager instead of flowing directly from the
//	                        flight guardian to the requester (the E2
//	                        ablation; the paper's design is false)
//
// The manager creates one flight guardian per flight at its own node and
// dispatches requests to them. With relay=false it forwards the original
// replyto, so "the response will go directly from the flight guardian to
// the original requesting process, bypassing the regional manager".
//
// The manager itself recovers after a crash by re-creating its directory;
// the flight guardians recover their own seat data from their own logs.
func RegionalDef() *guardian.GuardianDef {
	return &guardian.GuardianDef{
		TypeName: RegionalDefName,
		Provides: []*guardian.PortType{RegionalPortType},
		Init:     func(ctx *guardian.Ctx) { regionalMain(ctx, false) },
		Recover:  func(ctx *guardian.Ctx) { regionalMain(ctx, true) },
	}
}

func regionalArgs(args xrep.Seq) (*regionalState, []int64, error) {
	f := xrep.ReadFields(args, 5)
	flights := xrep.ReadFields(f.Seq(), 0)
	capacity, org, workUS, relay := f.Int(), f.Str(), f.Int(), f.Bool()
	var nos []int64
	for flights.More() {
		nos = append(nos, flights.Int())
	}
	if err := errors.Join(f.Err(), flights.Err()); err != nil {
		return nil, nil, fmt.Errorf("airline: regional manager args (flights, capacity, org, work µs, relay): %w", err)
	}
	return &regionalState{
		org:        org,
		workCostUS: workUS,
		capacity:   capacity,
		relay:      relay,
		directory:  make(map[int64]xrep.PortName),
		acl:        guardian.NewACL(),
	}, nos, nil
}

func regionalMain(ctx *guardian.Ctx, recovering bool) {
	st, flights, err := regionalArgs(ctx.Args)
	if err != nil {
		ctx.G.SelfDestruct()
		return
	}
	ctx.G.SetState(st)
	g := ctx.G
	log := g.Log()

	// The manager's directory is part of the resource it guards: every
	// change is logged durably before it takes effect (§2.2), and recovery
	// replays the log. The flight guardians recover their own seat data
	// from their own logs; their port names are stable across the crash,
	// so replayed directory entries remain valid.
	addFlight := func(no int64) error {
		created, err := g.Create(FlightDefName, no, st.capacity, st.org, st.workCostUS)
		if err != nil {
			return err
		}
		log.AppendSync(directoryRecord("add", no, created.Ports[0]))
		st.directory[no] = created.Ports[0]
		return nil
	}
	if recovering {
		g.Replay(nil, st.foldDirectory)
	} else {
		for _, no := range flights {
			if err := addFlight(no); err != nil {
				ctx.G.SelfDestruct()
				return
			}
		}
	}

	// forward dispatches a request to the flight guardian. With the
	// paper's design the original replyto rides along, so the flight
	// guardian answers the requester directly; with relay=true the manager
	// interposes a relay port and forwards the answer itself (one extra
	// message and one extra hop of latency — measured in E2).
	forward := func(pr *guardian.Process, m *guardian.Message, args ...any) {
		no := m.Int(0)
		fp, ok := st.directory[no]
		if !ok {
			if !m.ReplyTo.IsZero() {
				_ = pr.Send(m.ReplyTo, OutcomeNoSuchFlight)
			}
			return
		}
		if !st.relay || m.ReplyTo.IsZero() {
			_ = pr.SendReplyTo(fp, m.ReplyTo, m.Command, args...)
			return
		}
		relayPort, err := g.NewPort(ClientReplyType, 1)
		if err != nil {
			return
		}
		finalDest := m.ReplyTo
		if err := pr.SendReplyTo(fp, relayPort.Name(), m.Command, args...); err != nil {
			g.RemovePort(relayPort)
			return
		}
		g.Spawn("relay", func(q *guardian.Process) {
			defer g.RemovePort(relayPort)
			reply, status := q.Receive(guardian.Infinite, relayPort)
			if status != guardian.RecvOK {
				return
			}
			argv := make([]any, len(reply.Args))
			for i, a := range reply.Args {
				argv[i] = a
			}
			_ = q.Send(finalDest, reply.Command, argv...)
		})
	}

	// No failure arm: the regional keeps no call state; the client retries.
	guardian.NewReceiver(ctx.Ports[0]).
		When("reserve", func(pr *guardian.Process, m *guardian.Message) {
			forward(pr, m, m.Args[0], m.Args[1], m.Args[2])
		}).
		When("cancel", func(pr *guardian.Process, m *guardian.Message) {
			forward(pr, m, m.Args[0], m.Args[1], m.Args[2])
		}).
		When("list_passengers", func(pr *guardian.Process, m *guardian.Message) {
			// §2.3: "only a manager can request a passenger list" — the
			// guardian checks the requester's right before dispatching.
			if !st.acl.PermitsMessage(m) {
				if !m.ReplyTo.IsZero() {
					_ = pr.Send(m.ReplyTo, OutcomeNotPermitted)
				}
				return
			}
			forward(pr, m, m.Args[0], m.Args[1])
		}).
		When("add_flight", func(pr *guardian.Process, m *guardian.Message) {
			no := m.Int(0)
			reply := func(cmd string) {
				if !m.ReplyTo.IsZero() {
					_ = pr.Send(m.ReplyTo, cmd)
				}
			}
			if _, dup := st.directory[no]; dup {
				reply("flight_exists")
				return
			}
			if cap := m.Int(1); cap > 0 {
				st.capacity = cap
			}
			if err := addFlight(no); err != nil {
				reply("flight_exists")
				return
			}
			reply("flight_added")
		}).
		When("delete_flight", func(pr *guardian.Process, m *guardian.Message) {
			no := m.Int(0)
			reply := func(cmd string) {
				if !m.ReplyTo.IsZero() {
					_ = pr.Send(m.ReplyTo, cmd)
				}
			}
			fp, ok := st.directory[no]
			if !ok {
				reply(OutcomeNoSuchFlight)
				return
			}
			log.AppendSync(directoryRecord("del", no, xrep.PortName{}))
			delete(st.directory, no)
			if fg, ok := lookupGuardian(g, fp.Guardian); ok {
				fg.SelfDestruct()
			}
			reply("flight_deleted")
		}).
		When("usage", func(pr *guardian.Process, m *guardian.Message) {
			// Administrative statistics: per flight, total reserved seats
			// across all dates (a same-node read of quiescent state).
			if m.ReplyTo.IsZero() {
				return
			}
			out := xrep.Seq{}
			for no, fp := range st.directory {
				fg, ok := lookupGuardian(g, fp.Guardian)
				if !ok {
					continue
				}
				fst, ok := fg.State().(*flightState)
				if !ok {
					continue
				}
				total := 0
				fst.mu.Lock()
				for _, dd := range fst.dates {
					total += len(dd.reserved)
				}
				fst.mu.Unlock()
				out = append(out, xrep.Seq{xrep.Int(no), xrep.Int(total)})
			}
			_ = pr.Send(m.ReplyTo, "usage_info", out)
		}).
		When("grant_list_access", func(pr *guardian.Process, m *guardian.Message) {
			// Physical control (§1, advantage 3): only software at the
			// manager's own node may change who can list passengers.
			reply := func(cmd string) {
				if !m.ReplyTo.IsZero() {
					_ = pr.Send(m.ReplyTo, cmd)
				}
			}
			if m.SrcNode != g.Node().Name() {
				reply(OutcomeNotPermitted)
				return
			}
			st.acl.Allow(guardian.Principal{Node: m.Str(0), Guardian: uint64(m.Int(1))}, "list_passengers")
			reply("granted")
		}).
		Loop(ctx.Proc, nil)
}

// directoryRecord encodes a durable directory change.
func directoryRecord(op string, no int64, port xrep.PortName) []byte {
	b, err := wire.MarshalValue(xrep.Seq{xrep.Str(op), xrep.Int(no), port})
	if err != nil {
		panic(err)
	}
	return b
}

// foldDirectory is the manager's folder (guardian.Folder), and
// directoryRecord's inverse. The manager's log has one writer, so every
// record is a directory change or malformed.
func (st *regionalState) foldDirectory(v xrep.Value) (bool, error) {
	f := xrep.ReadSeq(v, 3)
	op, no, port := f.Str(), f.Int(), f.Port()
	if err := f.Err(); err != nil {
		return true, fmt.Errorf("airline: directory record: %w", err)
	}
	switch op {
	case "add":
		st.directory[no] = port
	case "del":
		delete(st.directory, no)
	default:
		return true, fmt.Errorf("airline: directory record of unknown kind %q", op)
	}
	return true, nil
}

// lookupGuardian finds a co-resident guardian by id. Guardians at the same
// node may hold direct references (they were created by each other);
// cross-guardian state is still only reachable via messages or these
// owner-mediated reads.
func lookupGuardian(g *guardian.Guardian, id uint64) (*guardian.Guardian, bool) {
	return g.Node().GuardianByID(id)
}
