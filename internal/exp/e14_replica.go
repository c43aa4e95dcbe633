package exp

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/amo"
	"repro/internal/bank"
	"repro/internal/durable"
	"repro/internal/guardian"
	"repro/internal/metrics"
	"repro/internal/nameserv"
	"repro/internal/netsim"
	"repro/internal/replica"
	"repro/internal/vtime"
	"repro/internal/xrep"
)

// E14Params configures the replication experiment.
type E14Params struct {
	// Transfers is the timed workload size across all clients, per arm.
	Transfers int
	// Clients run concurrently, each owning a disjoint account pair.
	Clients int
	// NetLatency is the one-way base latency; it is what a quorum ack
	// round costs on the wire.
	NetLatency time.Duration
	// SyncDelay models one forced write: the primary pays it on commit,
	// followers pay it again before acking.
	SyncDelay time.Duration
	// AttemptTimeout and Retries shape the at-most-once calls.
	AttemptTimeout time.Duration
	Retries        int
	// Heartbeat and Threshold shape failure detection: silence for about
	// Heartbeat×(Threshold+1) starts an election.
	Heartbeat time.Duration
	Threshold int
}

// E14Defaults is the full-size configuration.
var E14Defaults = E14Params{
	Transfers:      240,
	Clients:        6,
	NetLatency:     300 * time.Microsecond,
	SyncDelay:      200 * time.Microsecond,
	AttemptTimeout: 50 * time.Millisecond,
	Retries:        40,
	Heartbeat:      5 * time.Millisecond,
	Threshold:      2,
}

// RunE14Replica prices what replication adds to the paper's "permanence
// of effect" (§2.2). The same concurrent transfer workload runs against
// three arms of the same bank branch: a single node with group-committed
// durable storage (the baseline the durable-storage work established), a
// three-member replica group acking asynchronously, and the same group
// in quorum mode, where a commit does not return until a majority holds
// it. The quorum arm then loses its primary outright — permanent death,
// not a restart — and the time until a client, re-resolving the
// well-known name, gets its next reply is the failover cost. Money must
// be conserved across the takeover.
func RunE14Replica(p E14Params, scale Scale) (*Result, error) {
	p.Transfers = scale.N(p.Transfers, 30)
	if p.Clients > p.Transfers {
		p.Clients = p.Transfers
	}
	res := &Result{ID: "E14 (extension: replicated guardians with automatic failover)"}
	tab := metrics.NewTable(
		fmt.Sprintf("Replication arms: %d transfers, %v net latency, %v fsync",
			p.Transfers, p.NetLatency, p.SyncDelay),
		"mode", "ok", "failed", "commit-mean", "commit-p99", "shipped", "applied", "takeovers", "failover")
	res.Tables = append(res.Tables, tab)

	var single, quorum time.Duration
	for _, mode := range []string{"single", "async", "quorum"} {
		row, err := runE14Cell(p, mode)
		if err != nil {
			return nil, fmt.Errorf("exp: %s arm: %w", mode, err)
		}
		failover := "-"
		if mode != "single" {
			failover = row.failover.Round(time.Millisecond).String()
		}
		tab.AddRow(mode, row.ok, row.failed,
			row.mean.Round(time.Microsecond).String(), row.p99.Round(time.Microsecond).String(),
			row.shipped, row.applied, row.takeovers, failover)
		switch mode {
		case "single":
			single = row.mean
		case "quorum":
			quorum = row.mean
		}
		if !row.conserved {
			res.Notef("DEVIATES: %s arm lost money across the run (%d != %d)", mode, row.total, row.expected)
			continue
		}
		if mode != "single" {
			if row.takeovers >= 1 && row.afterOK {
				res.Notef("HOLDS: %s arm survived permanent primary death — takeover in %v, money conserved, client resumed via re-resolution",
					mode, row.failover.Round(time.Millisecond))
			} else {
				res.Notef("DEVIATES: %s arm did not fail over (takeovers=%d, resumed=%v)", mode, row.takeovers, row.afterOK)
			}
		}
	}
	if single > 0 && quorum > single {
		res.Notef("quorum-ack cost: %.1fx the single-node group commit per transfer (%v vs %v) — the price of surviving the primary",
			float64(quorum)/float64(single), quorum.Round(time.Microsecond), single.Round(time.Microsecond))
	}
	return res, nil
}

type e14Row struct {
	ok, failed int64
	mean, p99  time.Duration
	shipped    int64
	applied    int64
	takeovers  int64
	failover   time.Duration
	afterOK    bool
	conserved  bool
	total      int64
	expected   int64
}

const e14Service = "bank/main"

var e14Members = []string{"m1", "m2", "m3"}

func runE14Cell(p E14Params, mode string) (e14Row, error) {
	var row e14Row
	replicated := mode != "single"
	nsPort := xrep.PortName{Node: "clients", Guardian: 2, Port: 1}

	var storesMu sync.Mutex
	stores := make(map[string]*replica.Store)
	cfg := guardian.Config{Net: netsim.Config{Seed: 14, BaseLatency: p.NetLatency}}
	cfg.Store = func(node string) (durable.Store, error) {
		var inner durable.Store = durable.NewMem(vtime.NewReal(), durable.MemConfig{SyncDelay: p.SyncDelay})
		member := false
		for _, m := range e14Members {
			member = member || m == node
		}
		if !replicated || !member {
			return inner, nil
		}
		rm := replica.ModeQuorum
		if mode == "async" {
			rm = replica.ModeAsync
		}
		st, err := replica.NewStore(inner, replica.Config{
			Group:       "e14",
			Self:        node,
			Members:     e14Members,
			Mode:        rm,
			Heartbeat:   p.Heartbeat,
			Threshold:   p.Threshold,
			AppDef:      bank.BranchDefName,
			Service:     e14Service,
			NS:          nsPort,
			ServicePort: 1,
		})
		if err != nil {
			return nil, err
		}
		storesMu.Lock()
		stores[node] = st
		storesMu.Unlock()
		return st, nil
	}
	w := guardian.NewWorld(cfg)
	defer w.Close()
	w.MustRegister(bank.BranchDef())
	w.MustRegister(nameserv.Def())
	w.MustRegister(replica.Def())

	clients := w.MustAddNode("clients")
	if _, err := clients.Bootstrap(nameserv.DefName); err != nil {
		return row, err
	}
	members := e14Members
	if !replicated {
		members = e14Members[:1]
	}
	for _, m := range members {
		n := w.MustAddNode(m)
		if replicated {
			// The replicator must be each member's first guardian: its port
			// name {node, 2, 1} is the a-priori address of the group.
			if _, err := n.Bootstrap(replica.DefName); err != nil {
				return row, err
			}
		}
	}
	primary, err := w.Node(members[0])
	if err != nil {
		return row, err
	}
	created, err := primary.Bootstrap(bank.BranchDefName)
	if err != nil {
		return row, err
	}
	if replicated {
		storesMu.Lock()
		st := stores[members[0]]
		storesMu.Unlock()
		st.Adopt(primary, created)
	}

	newCaller := func(name string) (*amo.Caller, *guardian.Process, error) {
		_, pr, err := clients.NewDriver(name)
		if err != nil {
			return nil, nil, err
		}
		opts := amo.CallerOptions{
			Timeout: p.AttemptTimeout,
			Retries: p.Retries,
			Backoff: amo.BackoffPolicy{Base: 2 * time.Millisecond, Jitter: 0.5},
		}
		if replicated {
			nc, err := nameserv.NewClient(pr, nsPort)
			if err != nil {
				return nil, nil, err
			}
			opts.Resolve = func() (xrep.PortName, bool) {
				port, _, err := nc.Lookup(e14Service, p.AttemptTimeout)
				return port, err == nil
			}
		}
		c, err := amo.NewCaller(pr, opts)
		return c, pr, err
	}
	// All arms call the same port name the service would resolve to; the
	// replica arms re-resolve on retries, which is what carries a client
	// across the failover below.
	svc := created.Ports[1]

	const seedFunds = int64(1_000_000)
	perClient := p.Transfers / p.Clients
	extra := p.Transfers % p.Clients
	type clientResult struct {
		ok, failed int64
		durs       []time.Duration
		err        error
	}
	results := make([]clientResult, p.Clients)
	var wg sync.WaitGroup
	for i := 0; i < p.Clients; i++ {
		caller, _, err := newCaller(fmt.Sprintf("teller-%d", i))
		if err != nil {
			return row, err
		}
		calls := perClient
		if i < extra {
			calls++
		}
		wg.Add(1)
		go func(i, calls int, caller *amo.Caller) {
			defer wg.Done()
			defer caller.Close()
			r := &results[i]
			a, b := fmt.Sprintf("c%d-a", i), fmt.Sprintf("c%d-b", i)
			for _, op := range [][]any{{"open", a}, {"open", b}, {"deposit", a, seedFunds}} {
				if _, err := caller.Call(svc, op[0].(string), op[1:]...); err != nil {
					r.err = err
					return
				}
			}
			for j := 0; j < calls; j++ {
				start := time.Now()
				rep, err := caller.Call(svc, "transfer", a, b, int64(1+j%7))
				if err != nil {
					r.failed++
					continue
				}
				if rep.Command == bank.OutcomeOK {
					r.ok++
					r.durs = append(r.durs, time.Since(start))
				}
			}
		}(i, calls, caller)
	}
	wg.Wait()

	var durs []time.Duration
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return row, r.err
		}
		row.ok += r.ok
		row.failed += r.failed
		durs = append(durs, r.durs...)
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	if n := len(durs); n > 0 {
		var sum time.Duration
		for _, d := range durs {
			sum += d
		}
		row.mean = sum / time.Duration(n)
		row.p99 = durs[n*99/100]
	}

	// Failover: kill the primary permanently — no restart is coming — and
	// clock how long until a re-resolving client gets its next reply.
	if replicated {
		probe, _, err := newCaller("probe")
		if err != nil {
			return row, err
		}
		defer probe.Close()
		if _, err := probe.Call(svc, "open", "probe-acct"); err != nil {
			return row, fmt.Errorf("probe warmup: %w", err)
		}
		start := time.Now()
		primary.Crash()
		for {
			if _, err := probe.Call(svc, "balance", "probe-acct"); err == nil {
				row.afterOK = true
				break
			}
			if time.Since(start) > 30*time.Second {
				break
			}
		}
		row.failover = time.Since(start)
	}
	waitQuiesce(w)

	// Audit on whatever member now serves the branch: every seeded pot is
	// intact — transfers move money, the takeover must not mint or burn it.
	row.expected = seedFunds * int64(p.Clients)
	serving, err := e14ServingGuardian(w, replicated, created, stores)
	if err != nil {
		return row, err
	}
	balances, err := bank.Snapshot(serving)
	if err != nil {
		return row, err
	}
	for i := 0; i < p.Clients; i++ {
		row.total += balances[fmt.Sprintf("c%d-a", i)] + balances[fmt.Sprintf("c%d-b", i)]
	}
	row.conserved = row.total == row.expected
	storesMu.Lock()
	for _, st := range stores {
		s := st.ReplStats()
		row.shipped += s.ShippedRecords
		row.applied += s.AppliedRecords
		row.takeovers += s.Takeovers
	}
	storesMu.Unlock()
	return row, nil
}

// e14ServingGuardian locates the branch: the bootstrapped guardian in the
// single arm, the elected leader's takeover instance after the failover.
func e14ServingGuardian(w *guardian.World, replicated bool, created *guardian.Created,
	stores map[string]*replica.Store) (*guardian.Guardian, error) {
	if !replicated {
		n, err := w.Node(e14Members[0])
		if err != nil {
			return nil, err
		}
		g, ok := n.GuardianByID(created.GuardianID)
		if !ok {
			return nil, fmt.Errorf("exp: branch guardian vanished")
		}
		return g, nil
	}
	for _, m := range e14Members {
		n, err := w.Node(m)
		if err != nil || !n.Alive() {
			continue
		}
		if st := stores[m]; st != nil {
			if _, _, isSelf := st.Leader(); isSelf {
				if g := st.AppGuardian(); g != nil {
					return g, nil
				}
			}
		}
	}
	return nil, fmt.Errorf("exp: no live leader serves the branch after failover")
}
