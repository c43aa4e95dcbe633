package dst

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/airline"
	"repro/internal/amo"
	"repro/internal/guardian"
	"repro/internal/sendprim"
)

// flightNo and flightCapacity shape the airline workload: a small capacity
// against many reserve attempts keeps the seat table full and the
// waitlist-promotion path hot — the regime where an overbooking bug would
// show.
const (
	flightNo       = 7
	flightCapacity = 3
)

var flightDates = []string{"jul4", "jul5", "jul6"}

// airlineWorkload drives reserve/cancel traffic against one flight
// guardian through its at-most-once port and audits the seat data:
//
//	no-overbooking: Reserved ≤ capacity on every date, always — the
//	                §2.3 correctness property the three organizations of
//	                Figure 1 exist to protect
//	recovery:       seat data after crash+restart == before (reserve and
//	                cancel are logged before the reply leaves)
type airlineWorkload struct {
	opts    Options
	w       *guardian.World
	created *guardian.Created
	met     *amo.Metrics

	mu        sync.Mutex
	opsIssued int64
	opsAcked  int64
	opsFailed int64
}

func newAirlineWorkload(opts Options) *airlineWorkload {
	return &airlineWorkload{opts: opts, met: &amo.Metrics{}}
}

func (a *airlineWorkload) crashNodes() []string { return []string{serverNode} }
func (a *airlineWorkload) killNodes() []string  { return nil }

func (a *airlineWorkload) setup(w *guardian.World) error {
	a.w = w
	w.MustRegister(airline.FlightDef())
	srv := w.MustAddNode(serverNode)
	w.MustAddNode(clientsNode)
	created, err := srv.Bootstrap(airline.FlightDefName,
		int64(flightNo), int64(flightCapacity), airline.OrgSequential, int64(0))
	if err != nil {
		return err
	}
	a.created = created
	return nil
}

func (a *airlineWorkload) client(i int, crng *rand.Rand) {
	node, err := a.w.Node(clientsNode)
	if err != nil {
		return
	}
	_, pr, err := node.NewDriver(fmt.Sprintf("airline-client-%d", i))
	if err != nil {
		return
	}
	caller, err := amo.NewCaller(pr, callerOptions(a.opts, a.met, crng.Int63()))
	if err != nil {
		return
	}
	defer caller.Close()
	amoPort := a.created.Ports[1]

	passengers := []string{
		fmt.Sprintf("p%d-0", i), fmt.Sprintf("p%d-1", i), fmt.Sprintf("p%d-2", i),
	}
	for op := 0; op < a.opts.OpsPerClient; op++ {
		pace(pr, crng, a.opts)
		cmd := "reserve"
		if crng.Intn(10) < 4 {
			cmd = "cancel"
		}
		pid := passengers[crng.Intn(len(passengers))]
		date := flightDates[crng.Intn(len(flightDates))]
		a.note(func() { a.opsIssued++ })
		if _, err := caller.Call(amoPort, cmd, int64(flightNo), pid, date); err != nil {
			a.note(func() { a.opsFailed++ })
			continue
		}
		a.note(func() { a.opsAcked++ })
	}
}

func (a *airlineWorkload) note(f func()) {
	a.mu.Lock()
	f()
	a.mu.Unlock()
}

// flight returns the flight guardian once it provably serves (see
// serving); the synchronizing call is a list_passengers request.
func (a *airlineWorkload) flight(w *guardian.World, rep *Report, pr *guardian.Process) *guardian.Guardian {
	return serving(w, rep, serverNode, a.created.GuardianID, func() error {
		_, err := sendprim.Call(pr, a.created.Ports[0], airline.ClientReplyType,
			auditCallOptions(a.opts), "list_passengers", int64(flightNo), flightDates[0])
		return err
	})
}

func (a *airlineWorkload) check(w *guardian.World, rep *Report, crashed bool) {
	a.mu.Lock()
	rep.OpsIssued, rep.OpsAcked, rep.OpsFailed = a.opsIssued, a.opsAcked, a.opsFailed
	a.mu.Unlock()
	rep.Retries = a.met.Retries.Load()

	pr := checker(w, rep, "airline-checker")
	if pr == nil {
		return
	}
	g := a.flight(w, rep, pr)
	if g == nil {
		return
	}
	pre, ok := airline.SnapshotAllDates(g)
	capacity, _ := airline.FlightCapacity(g)
	if !ok {
		rep.addViolation("recovery", "guardian %d is not a flight", a.created.GuardianID)
		return
	}
	for date, snap := range pre {
		if snap.Reserved > capacity {
			rep.addViolation("no-overbooking",
				"date %s has %d reserved seats for capacity %d", date, snap.Reserved, capacity)
		}
	}

	// Recovery: the flight logs every completed reserve/cancel before
	// replying, so a crash+restart must reproduce the same seat data.
	node, _ := w.Node(serverNode)
	node.Crash()
	if g = a.flight(w, rep, pr); g == nil {
		return
	}
	post, ok := airline.SnapshotAllDates(g)
	if !ok {
		rep.addViolation("recovery", "post-restart snapshot failed")
		return
	}
	if len(pre) != len(post) {
		rep.addViolation("recovery", "dates %d before crash, %d after", len(pre), len(post))
		return
	}
	for date, snap := range pre {
		if post[date] != snap {
			rep.addViolation("recovery",
				"date %s: pre-crash %+v != post-restart %+v", date, snap, post[date])
		}
	}
}
