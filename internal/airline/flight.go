package airline

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/amo"
	"repro/internal/csync"
	"repro/internal/guardian"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// FlightDefName is the library name of the flight guardian definition.
const FlightDefName = "airline_flight"

// flightState is the guardian's objects: the seat data for one flight,
// shared by the guardian's processes and coordinated per organization.
type flightState struct {
	flightNo int64
	capacity int
	org      string
	// workCost simulates the real work of performing a request (I/O,
	// validation); it is what makes concurrency matter in experiment E1.
	workCost time.Duration

	mu    sync.Mutex // guards the dates map itself
	dates map[string]*dateData

	// Organization-specific synchronization objects.
	serializer *csync.Serializer[string] // Fig 1b
	dateLock   *csync.KeyLock[string]    // Fig 1c
}

// dateData is the seat data for one (flight, date). Access is serialized
// per date by the organization's synchronization object, so no further
// locking is needed inside.
type dateData struct {
	reserved map[string]bool
	waitlist []string
}

func (st *flightState) date(d string) *dateData {
	st.mu.Lock()
	defer st.mu.Unlock()
	dd, ok := st.dates[d]
	if !ok {
		dd = &dateData{reserved: make(map[string]bool)}
		st.dates[d] = dd
	}
	return dd
}

// apply performs one reserve or cancel against the date's data and returns
// the outcome. It must be called while holding possession of the date.
// The logic is deterministic, so recovery replays the log through the same
// function.
func (dd *dateData) apply(op, passenger string, capacity int) string {
	switch op {
	case "reserve":
		if dd.reserved[passenger] {
			return OutcomePreReserved
		}
		if len(dd.reserved) < capacity {
			dd.reserved[passenger] = true
			return OutcomeOK
		}
		for _, w := range dd.waitlist {
			if w == passenger {
				return OutcomeWaitList // already waiting; idempotent
			}
		}
		dd.waitlist = append(dd.waitlist, passenger)
		return OutcomeWaitList
	case "cancel":
		if dd.reserved[passenger] {
			delete(dd.reserved, passenger)
			// Promote the oldest waitlisted passenger, if any.
			if len(dd.waitlist) > 0 {
				dd.reserved[dd.waitlist[0]] = true
				dd.waitlist = dd.waitlist[1:]
			}
			return OutcomeCanceled
		}
		// Dropping out of the waitlist also counts as a cancel.
		for i, w := range dd.waitlist {
			if w == passenger {
				dd.waitlist = append(dd.waitlist[:i], dd.waitlist[i+1:]...)
				return OutcomeCanceled
			}
		}
		return OutcomeNotReserved
	default:
		panic("airline: unknown op " + op)
	}
}

// passengers returns the reserved passengers, sorted.
func (dd *dateData) passengers() []string {
	out := make([]string, 0, len(dd.reserved))
	for p := range dd.reserved {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// FlightDef returns the flight guardian definition. Creation arguments:
// flight_no (int), capacity (int), organization (string, an Org*
// constant), work_cost_us (int, simulated per-request work in
// microseconds).
//
// The guardian logs every completed reserve/cancel (log-then-reply, §2.2)
// and recovers its seat data by replaying the log.
//
// Besides its native port it serves an at-most-once port. The paper makes
// reserve and cancel deliberately idempotent so §3.5 retries are safe;
// what idempotence cannot give a retrying client is the ORIGINAL outcome
// (a re-sent reserve that first answered ok reports pre_reserved). The amo
// filter's cached reply restores that. The filter keeps no durable state:
// after a crash the operations' own idempotence is protection enough.
func FlightDef() *guardian.GuardianDef {
	return &guardian.GuardianDef{
		TypeName: FlightDefName,
		Provides: []*guardian.PortType{FlightPortType, amo.ReqType},
		Init:     func(ctx *guardian.Ctx) { flightMain(ctx) },
		Recover:  func(ctx *guardian.Ctx) { flightMain(ctx) },
	}
}

func flightArgs(args xrep.Seq) (*flightState, error) {
	f := xrep.ReadFields(args, 4)
	no, capacity, org, workUS := f.Int(), f.Int(), f.Str(), f.Int()
	if err := f.Err(); err != nil {
		return nil, fmt.Errorf("airline: flight guardian args (no, capacity, org, work µs): %w", err)
	}
	switch org {
	case OrgSequential, OrgSerializer, OrgMonitor:
	default:
		return nil, fmt.Errorf("airline: unknown organization %q", org)
	}
	return &flightState{
		flightNo: no,
		capacity: int(capacity),
		org:      org,
		workCost: time.Duration(workUS) * time.Microsecond,
		dates:    make(map[string]*dateData),
	}, nil
}

// logRecord encodes one durable operation record.
func logRecord(op, passenger, date string) []byte {
	b, err := wire.MarshalValue(xrep.Seq{xrep.Str(op), xrep.Str(passenger), xrep.Str(date)})
	if err != nil {
		panic(err) // strings always encode
	}
	return b
}

// foldRecord is the flight's folder (guardian.Folder), and logRecord's
// inverse. The flight's log has one writer, so every record is
// (op, passenger, date) or malformed.
func (st *flightState) foldRecord(v xrep.Value) (bool, error) {
	f := xrep.ReadSeq(v, 3)
	op, pid, date := f.Str(), f.Str(), f.Str()
	if err := f.Err(); err != nil {
		return true, fmt.Errorf("airline: flight record: %w", err)
	}
	st.date(date).apply(op, pid, st.capacity)
	return true, nil
}

func flightMain(ctx *guardian.Ctx) {
	st, err := flightArgs(ctx.Args)
	if err != nil {
		// A malformed creation is a programming error in the creator;
		// the guardian refuses to serve.
		ctx.G.SelfDestruct()
		return
	}
	switch st.org {
	case OrgSerializer:
		st.serializer = csync.NewSerializer[string]()
	case OrgMonitor:
		st.dateLock = csync.NewKeyLock[string]()
	}
	ctx.G.SetState(st)
	log := ctx.G.Log()
	if ctx.Recovering {
		ctx.G.Replay(nil, st.foldRecord)
	}

	g := ctx.G
	// perform executes one data-touching request while possession of the
	// date is held, logging before replying (permanence of effect).
	perform := func(pr *guardian.Process, m *guardian.Message, op string) {
		pid, date := m.Str(1), m.Str(2)
		if st.workCost > 0 {
			pr.Pause(st.workCost)
		}
		dd := st.date(date)
		outcome := dd.apply(op, pid, st.capacity)
		// Only state-changing outcomes need a log record; idempotent
		// no-ops (pre_reserved, not_reserved) do not change state, and
		// replaying them is harmless anyway.
		log.AppendSync(logRecord(op, pid, date))
		if !m.ReplyTo.IsZero() {
			_ = pr.Send(m.ReplyTo, outcome)
		}
	}

	// dispatch routes a request according to the organization.
	dispatch := func(pr *guardian.Process, m *guardian.Message, op string) {
		date := m.Str(2)
		switch st.org {
		case OrgSequential: // Fig 1a: process p does it all
			perform(pr, m, op)
		case OrgSerializer: // Fig 1b: p consults S, forks q_i when free
			st.serializer.Submit(date, func() {
				g.Spawn("q", func(q *guardian.Process) {
					perform(q, m, op)
					st.serializer.Done(date)
				})
			})
		case OrgMonitor: // Fig 1c: fork immediately; q_i synchronize via M
			g.Spawn("q", func(q *guardian.Process) {
				st.dateLock.StartRequest(date)
				defer st.dateLock.EndRequest(date)
				perform(q, m, op)
			})
		}
	}

	checkFlight := func(pr *guardian.Process, m *guardian.Message) bool {
		if m.Int(0) != st.flightNo {
			if !m.ReplyTo.IsZero() {
				_ = pr.Send(m.ReplyTo, OutcomeNoSuchFlight)
			}
			return false
		}
		return true
	}

	// withDate runs fn holding possession of the date under the guardian's
	// organization, blocking the calling process until fn completes.
	withDate := func(pr *guardian.Process, date string, fn func(dd *dateData)) {
		switch st.org {
		case OrgSerializer:
			done := make(chan struct{})
			st.serializer.Submit(date, func() {
				fn(st.date(date))
				st.serializer.Done(date)
				close(done)
			})
			<-done
		case OrgMonitor:
			st.dateLock.StartRequest(date)
			fn(st.date(date))
			st.dateLock.EndRequest(date)
		default:
			fn(st.date(date))
		}
	}

	// amoExec serves the at-most-once port: same operations, but executed
	// synchronously on the session process so the dedup filter can cache
	// the outcome before the reply leaves.
	amoExec := func(pr *guardian.Process, req amo.Request) (string, xrep.Seq, bool) {
		// (flight, passenger, date) or (flight, date), read left to right; a
		// request that does not read so names no flight here.
		f := xrep.ReadFields(req.Args, 0)
		no, pid, date := f.Int(), "", ""
		switch req.Command {
		case "reserve", "cancel":
			pid, date = f.Str(), f.Str()
		case "list_passengers":
			date = f.Str()
		}
		if f.Err() != nil || no != st.flightNo {
			return OutcomeNoSuchFlight, nil, false
		}
		switch req.Command {
		case "reserve", "cancel":
			var outcome string
			withDate(pr, date, func(dd *dateData) {
				if st.workCost > 0 {
					pr.Pause(st.workCost)
				}
				outcome = dd.apply(req.Command, pid, st.capacity)
				log.AppendSync(logRecord(req.Command, pid, date))
			})
			return outcome, nil, false
		case "list_passengers":
			var names []string
			withDate(pr, date, func(dd *dateData) {
				names = dd.passengers()
			})
			seq := make(xrep.Seq, len(names))
			for i, nm := range names {
				seq[i] = xrep.Str(nm)
			}
			return "info", xrep.Seq{seq}, true
		}
		return OutcomeNoSuchFlight, nil, false
	}
	dedup := amo.NewDedup(amo.DedupOptions{})

	// No failure arm: the duplicate table re-answers a retry.
	guardian.NewReceiver(ctx.Ports[0], ctx.Ports[1]).
		Intercept(dedup.Hook(amoExec), amo.ReqCommand).
		When("reserve", func(pr *guardian.Process, m *guardian.Message) {
			if checkFlight(pr, m) {
				dispatch(pr, m, "reserve")
			}
		}).
		When("cancel", func(pr *guardian.Process, m *guardian.Message) {
			if checkFlight(pr, m) {
				dispatch(pr, m, "cancel")
			}
		}).
		When("list_passengers", func(pr *guardian.Process, m *guardian.Message) {
			if !checkFlight(pr, m) {
				return
			}
			date := m.Str(1)
			// Listing is a read: take possession briefly for a consistent
			// snapshot under the concurrent organizations.
			var names []string
			switch st.org {
			case OrgMonitor:
				st.dateLock.StartRequest(date)
				names = st.date(date).passengers()
				st.dateLock.EndRequest(date)
			case OrgSerializer:
				done := make(chan struct{})
				st.serializer.Submit(date, func() {
					names = st.date(date).passengers()
					st.serializer.Done(date)
					close(done)
				})
				<-done
			default:
				names = st.date(date).passengers()
			}
			if !m.ReplyTo.IsZero() {
				seq := make(xrep.Seq, len(names))
				for i, nm := range names {
					seq[i] = xrep.Str(nm)
				}
				_ = pr.Send(m.ReplyTo, "info", seq)
			}
		}).
		Loop(ctx.Proc, nil)
}

// FlightSnapshot is a read-only view of a flight's data for one date, used
// by tests and the usage statistics.
type FlightSnapshot struct {
	Reserved int
	Waiting  int
}

// SnapshotAllDates inspects every date a flight guardian has touched.
// Quiescent-guardians-only, like SnapshotFlight.
func SnapshotAllDates(g *guardian.Guardian) (map[string]FlightSnapshot, bool) {
	st, ok := g.State().(*flightState)
	if !ok {
		return nil, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]FlightSnapshot, len(st.dates))
	for d, dd := range st.dates {
		out[d] = FlightSnapshot{Reserved: len(dd.reserved), Waiting: len(dd.waitlist)}
	}
	return out, true
}

// FlightCapacity reports the guardian's configured seats per date — the
// bound a no-overbooking checker holds every date's Reserved count to.
func FlightCapacity(g *guardian.Guardian) (int, bool) {
	st, ok := g.State().(*flightState)
	if !ok {
		return 0, false
	}
	return st.capacity, true
}

// SnapshotFlight inspects a flight guardian's state. Only for tests and
// in-process tooling at the same node; it takes the date maps' mutex but
// not per-date possession, so use it only on quiescent guardians.
func SnapshotFlight(g *guardian.Guardian, date string) (FlightSnapshot, bool) {
	st, ok := g.State().(*flightState)
	if !ok {
		return FlightSnapshot{}, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	dd, ok := st.dates[date]
	if !ok {
		return FlightSnapshot{}, true
	}
	return FlightSnapshot{Reserved: len(dd.reserved), Waiting: len(dd.waitlist)}, true
}
