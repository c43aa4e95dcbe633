package exp

import (
	"fmt"
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

// The replication experiment at full size.
const (
	e14Transfers = 240 // timed workload across all clients, per arm
	e14Clients   = 6   // concurrent, each owning a disjoint account pair
	// e14NetLatency is the one-way base latency; it is what a quorum ack
	// round costs on the wire.
	e14NetLatency = 300 * time.Microsecond
	// e14SyncDelay models one forced write: the primary pays it on commit,
	// followers pay it again before acking.
	e14SyncDelay = 200 * time.Microsecond
	// e14AttemptTimeout and e14Retries shape the at-most-once calls.
	e14AttemptTimeout = 50 * time.Millisecond
	e14Retries        = 40
	// e14Heartbeat and e14Threshold shape failure detection: silence for
	// about Heartbeat×(Threshold+1) starts an election.
	e14Heartbeat = 5 * time.Millisecond
	e14Threshold = 2
)

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
func RunE14Replica(scale Scale) (*Result, error) {
	transfers := scale.N(e14Transfers, 30)
	res := &Result{ID: "E14 (extension: replicated guardians with automatic failover)"}
	tab := metrics.NewTable(
		fmt.Sprintf("Replication arms: %d transfers, %v net latency, %v fsync",
			transfers, e14NetLatency, e14SyncDelay),
		"mode", "ok", "failed", "commit-mean", "commit-p99", "shipped", "applied", "takeovers", "failover")
	res.Tables = append(res.Tables, tab)

	var single, quorum time.Duration
	for _, mode := range []string{"single", "async", "quorum"} {
		row, err := runE14Cell(transfers, mode)
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
			res.Deviatesf("%s arm lost money across the run (%d != %d)", mode, row.total, row.expected)
			continue
		}
		if mode != "single" {
			if row.takeovers >= 1 && row.afterOK {
				res.Holdsf("%s arm survived permanent primary death — takeover in %v, money conserved, client resumed via re-resolution",
					mode, row.failover.Round(time.Millisecond))
			} else {
				res.Deviatesf("%s arm did not fail over (takeovers=%d, resumed=%v)", mode, row.takeovers, row.afterOK)
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

func runE14Cell(transfers int, mode string) (e14Row, error) {
	var row e14Row
	replicated := mode != "single"
	nsPort := xrep.PortName{Node: "clients", Guardian: 2, Port: 1}

	var storesMu sync.Mutex
	stores := make(map[string]*replica.Store)
	cfg := guardian.Config{Net: netsim.Config{Seed: 14, BaseLatency: e14NetLatency}}
	cfg.Store = func(node string) (durable.Store, error) {
		var inner durable.Store = durable.NewMem(vtime.NewReal(), durable.MemConfig{SyncDelay: e14SyncDelay})
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
			Heartbeat:   e14Heartbeat,
			Threshold:   e14Threshold,
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

	newCaller := func(name string) (*amo.Caller, error) {
		_, pr, err := clients.NewDriver(name)
		if err != nil {
			return nil, err
		}
		opts := amo.CallerOptions{
			Timeout: e14AttemptTimeout,
			Retries: e14Retries,
			Backoff: amo.BackoffPolicy{Base: 2 * time.Millisecond, Jitter: 0.5},
		}
		if replicated {
			nc, err := nameserv.NewClient(pr, nsPort)
			if err != nil {
				return nil, err
			}
			opts.Resolve = func() (xrep.PortName, bool) {
				port, _, err := nc.Lookup(e14Service, e14AttemptTimeout)
				return port, err == nil
			}
		}
		return amo.NewCaller(pr, opts)
	}
	// All arms call the same port name the service would resolve to; the
	// replica arms re-resolve on retries, which is what carries a client
	// across the failover below.
	svc := created.Ports[1]

	// The tellers' reply ports go with the world (w.Close above).
	f, err := runFleet(w.Clock(), e14Clients, transfers, func(i int) (func(int) error, error) {
		caller, err := newCaller(fmt.Sprintf("teller-%d", i))
		if err != nil {
			return nil, err
		}
		a, b, err := fundedPair(i, func(cmd string, args ...any) error {
			rep, err := caller.Call(svc, cmd, args...)
			if err != nil {
				return err
			}
			return fundingOutcome(cmd, rep.Command)
		})
		if err != nil {
			return nil, err
		}
		return func(j int) error {
			rep, err := caller.Call(svc, "transfer", a, b, int64(1+j%7))
			if err == nil && rep.Command != bank.OutcomeOK {
				err = fmt.Errorf("exp: transfer answered %s", rep.Command)
			}
			return err
		}, nil
	})
	if err != nil {
		return row, err
	}
	row.ok, row.failed = f.OK, f.Failed
	row.mean, row.p99 = f.Latency.Mean, f.Latency.P99

	// Failover: kill the primary permanently — no restart is coming — and
	// clock how long until a re-resolving client gets its next reply.
	if replicated {
		probe, err := newCaller("probe")
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
	row.expected = seedFunds * e14Clients
	var serving *guardian.Guardian
	if replicated {
		serving, err = e14Leader(w, stores)
	} else if g, ok := primary.GuardianByID(created.GuardianID); ok {
		serving = g
	} else {
		err = fmt.Errorf("exp: branch guardian vanished")
	}
	if err != nil {
		return row, err
	}
	balances, err := bank.Snapshot(serving)
	if err != nil {
		return row, err
	}
	row.total = sumBalances(balances)
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

// e14Leader locates the branch after the failover: the elected leader's
// takeover instance.
func e14Leader(w *guardian.World, stores map[string]*replica.Store) (*guardian.Guardian, error) {
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
