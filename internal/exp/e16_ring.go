package exp

import (
	"fmt"
	"time"

	"repro/internal/amo"
	"repro/internal/bank"
	"repro/internal/guardian"
	"repro/internal/metrics"
	"repro/internal/nameserv"
	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/sendprim"
	"repro/internal/tpc"
	"repro/internal/workload"
)

// The consistent-hash scale-out experiment at full size: a million-account
// keyspace hammered by concurrent tellers against growing rings.
const (
	// e16Accounts is the keyspace tellers draw from (the generator derives
	// ids, so a million-account keyspace is free).
	e16Accounts = 1_000_000
	e16Ops      = 24_000 // across all tellers, per scaling cell
	e16SkewOps  = 8_000  // per cell of the skew ablation
	e16Tellers  = 24     // concurrent, each with its own ring Router
	// e16DepositFrac and e16WithdrawFrac set the mix; the rest are
	// transfers (cross-shard pairs ride 2PC).
	e16DepositFrac, e16WithdrawFrac = 0.45, 0.35
	e16NetLatency                   = 50 * time.Microsecond // one-way
	// e16AttemptTimeout and e16Retries tune each teller call.
	e16AttemptTimeout = 100 * time.Millisecond
	e16Retries        = 10
)

// e16ShardCounts are the ring sizes of the scaling table.
var e16ShardCounts = []int{1, 2, 4}

// RunE16Ring runs the same high-concurrency bank workload against rings
// of growing size and audits every cell for exact conservation: the
// merged shard totals must equal the acked deposits minus the acked
// withdrawals (transfers, split ones included, conserve). That audit is
// the experiment's claim — correctness is placement-independent. The
// throughput columns are descriptive, not a speedup claim: the simulated
// network is in-process, so extra shards add no CPU or pipe width, and
// what growing the ring surfaces is the cost sharding *adds* — split
// transfers that must ride 2PC through the coordinator instead of a
// single-guardian amo call. The skew ablation shows the other axis:
// uniform draws over a million-account keyspace pay first-touch opens on
// nearly every op, zipf amortizes them over a hot set, and single-key
// collapses every op onto one guardian.
func RunE16Ring(scale Scale) (*Result, error) {
	ops, skewOps, accounts := scale.N(e16Ops, 400), scale.N(e16SkewOps, 200), scale.N(e16Accounts, 1_000)
	res := &Result{ID: "E16 (extension: consistent-hash scale-out)"}
	// The conservation claim is earned cell by cell, over both tables.
	var broke []string

	scaleTab := metrics.NewTable(
		fmt.Sprintf("Ring scale-out: %d ops, %d tellers, %d-account keyspace, uniform skew",
			ops, e16Tellers, accounts),
		"shards", "ok", "failed", "transfers", "opens", "ops/sec", "relative", "accts-touched")
	res.Tables = append(res.Tables, scaleTab)
	var base, relative float64
	for _, shards := range e16ShardCounts {
		cell, err := runE16Cell(shards, ops, accounts, workload.SkewUniform)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = cell.opsPerSec
		}
		relative = cell.opsPerSec / base
		scaleTab.AddRow(shards, cell.ok, cell.failed, cell.split, cell.opens,
			fmt.Sprintf("%.0f", cell.opsPerSec), fmt.Sprintf("%.2fx", relative), cell.touched)
		if cell.conservationErr != nil {
			broke = append(broke, fmt.Sprintf("%d-shard ring: %v", shards, cell.conservationErr))
		}
	}
	last := e16ShardCounts[len(e16ShardCounts)-1]
	res.Notef("shape: throughput is bound by the in-process network, so growing the ring surfaces the 2PC surcharge on split transfers rather than a CPU speedup (%d-shard at %.2fx of single-shard)",
		last, relative)

	skewTab := metrics.NewTable(
		fmt.Sprintf("Skew ablation on the %d-shard ring: %d ops", last, skewOps),
		"skew", "ok", "failed", "transfers", "opens", "ops/sec", "accts-touched")
	res.Tables = append(res.Tables, skewTab)
	for _, skew := range []workload.Skew{workload.SkewUniform, workload.SkewZipf, workload.SkewSingle} {
		cell, err := runE16Cell(last, skewOps, accounts, skew)
		if err != nil {
			return nil, err
		}
		skewTab.AddRow(string(skew), cell.ok, cell.failed, cell.split, cell.opens,
			fmt.Sprintf("%.0f", cell.opsPerSec), cell.touched)
		if cell.conservationErr != nil {
			broke = append(broke, fmt.Sprintf("%s-skew cell: %v", skew, cell.conservationErr))
		}
	}
	res.HoldsUnless(broke, "every ring size conserved money exactly across shards, split 2PC transfers included")
	res.Notef("shape: uniform draws pay a first-touch open on most ops; zipf amortizes opens over its hot set; single-key degenerates transfers (from==to) to nothing")
	return res, nil
}

type e16Cell struct {
	ok, failed      int64
	split, opens    int64
	touched         int
	opsPerSec       float64
	conservationErr error
}

func runE16Cell(shards, totalOps, accounts int, skew workload.Skew) (e16Cell, error) {
	var cell e16Cell
	w := guardian.NewWorld(guardian.Config{Net: netsim.Config{Seed: 16, BaseLatency: e16NetLatency}})
	w.MustRegister(bank.BranchDef())
	w.MustRegister(nameserv.Def())
	w.MustRegister(tpc.CoordinatorDef())

	reg := w.MustAddNode("registry")
	nsCr, err := reg.Bootstrap(nameserv.DefName)
	if err != nil {
		return cell, err
	}
	txc := w.MustAddNode("txc")
	coCr, err := txc.Bootstrap(tpc.CoordinatorDefName)
	if err != nil {
		return cell, err
	}

	members := make([]ring.Member, shards)
	created := make([]*guardian.Created, shards)
	nodes := make([]*guardian.Node, shards)
	for i := 0; i < shards; i++ {
		name := fmt.Sprintf("s%d", i+1)
		n := w.MustAddNode(name)
		cr, err := n.Bootstrap(bank.BranchDefName, bank.ShardArg(name))
		if err != nil {
			return cell, err
		}
		members[i] = ring.Member{Name: name, Native: cr.Ports[0], Amo: cr.Ports[1]}
		created[i], nodes[i] = cr, n
	}

	tellers := w.MustAddNode("tellers")
	_, boot, err := tellers.NewDriver("ring-bootstrap")
	if err != nil {
		return cell, err
	}
	bootNS, err := nameserv.NewClient(boot, nsCr.Ports[0])
	if err != nil {
		return cell, err
	}
	if err := bank.Bootstrap(boot, ring.New("accounts", 0, members...),
		bank.RebalanceOptions{NS: bootNS}); err != nil {
		return cell, err
	}

	// Each teller keeps its own tallies; the audit merges them.
	type tally struct {
		skipped, split, opens int64
		depSum, wdSum         int64
		touched               map[string]bool
	}
	tallies := make([]tally, e16Tellers)
	f, err := runFleet(w.Clock(), e16Tellers, totalOps, func(i int) (func(int) error, error) {
		_, proc, err := tellers.NewDriver(fmt.Sprintf("teller-%d", i))
		if err != nil {
			return nil, err
		}
		ns, err := nameserv.NewClient(proc, nsCr.Ports[0])
		if err != nil {
			return nil, err
		}
		rt, err := bank.NewRouter(proc, bank.RouterOptions{
			NS:          ns,
			RingName:    "accounts",
			Coordinator: coCr.Ports[0],
			Call: amo.CallerOptions{
				Timeout: e16AttemptTimeout,
				Retries: e16Retries,
				Backoff: amo.BackoffPolicy{Base: time.Millisecond, Jitter: 0.5},
			},
		})
		if err != nil {
			return nil, err
		}
		r := &tallies[i]
		r.touched = make(map[string]bool)
		gen := workload.NewAccountGen(1000+int64(i), skew, accounts)
		mix := workload.NewBankMix(2000+int64(i), e16DepositFrac, e16WithdrawFrac)

		// ensure opens the account so the operation can be re-run; the
		// open and the retry are calls the keyspace's size forces, so
		// they depress ops/sec (wall clock) without inflating ok.
		ensure := func(acct string) bool {
			r.opens++
			rep, err := rt.Call(acct, "open", acct)
			return err == nil && (rep.Command == bank.OutcomeOK || rep.Command == bank.OutcomeExists)
		}
		return func(int) error {
			amt := mix.Amount(50)
			op := mix.Next()
			if op != workload.OpDeposit && op != workload.OpWithdraw { // transfer
				from, to := gen.Next(), gen.Next()
				if from == to {
					r.skipped++ // nothing to move: neither ok nor failed
					return nil
				}
				r.touched[from], r.touched[to] = true, true
				r.split++
				_, err := rt.Transfer(from, to, amt) // any definite outcome conserves
				return err
			}
			acct := gen.Next()
			r.touched[acct] = true
			rep, err := rt.Call(acct, op, acct, amt)
			if err == nil && rep.Command == bank.OutcomeNoAccount && ensure(acct) {
				rep, err = rt.Call(acct, op, acct, amt)
			}
			if err != nil {
				return err
			}
			if rep.Command == bank.OutcomeOK {
				if op == workload.OpDeposit {
					r.depSum += amt
				} else {
					r.wdSum += amt
				}
			}
			return nil
		}, nil
	})
	if err != nil {
		return cell, err
	}
	waitQuiesce(w)

	touched := make(map[string]bool)
	var expected int64
	cell.ok, cell.failed = f.OK, f.Failed
	for i := range tallies {
		r := &tallies[i]
		cell.ok -= r.skipped
		cell.split += r.split
		cell.opens += r.opens
		expected += r.depSum - r.wdSum
		for a := range r.touched {
			touched[a] = true
		}
	}
	cell.touched = len(touched)
	if f.Elapsed > 0 {
		cell.opsPerSec = float64(cell.ok) / f.Elapsed.Seconds()
	}

	// Conservation audit: ping each shard (ordering the snapshot read
	// after everything it wrote), then require the merged totals to equal
	// the acked deposits minus the acked withdrawals exactly.
	_, audit, err := tellers.NewDriver("ring-audit")
	if err != nil {
		return cell, err
	}
	pingOpts := sendprim.CallOptions{Timeout: e16AttemptTimeout, Retries: e16Retries, Backoff: time.Millisecond}
	var total int64
	for i, m := range members {
		if _, err := sendprim.Call(audit, m.Native, bank.ClientReplyType, pingOpts, "audit"); err != nil {
			return cell, fmt.Errorf("exp: shard %s audit ping: %w", m.Name, err)
		}
		g, ok := nodes[i].GuardianByID(created[i].GuardianID)
		if !ok {
			return cell, fmt.Errorf("exp: shard %s guardian vanished", m.Name)
		}
		_, _, accts, ok := bank.ShardSnapshot(g)
		if !ok {
			return cell, fmt.Errorf("exp: shard %s is not in shard mode", m.Name)
		}
		total += sumBalances(accts)
	}
	if total != expected {
		cell.conservationErr = fmt.Errorf("merged total %d != acked deposits-withdrawals %d", total, expected)
	}
	return cell, nil
}
