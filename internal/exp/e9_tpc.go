package exp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/guardian"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sendprim"
	"repro/internal/tpc"
	"repro/internal/xrep"
)

// The atomic-commitment experiment at full size.
const (
	e9Transactions = 25               // per cell
	e9NetLatency   = time.Millisecond // one-way, between nodes
	e9LossRate     = 0.15             // of the fault-injected atomicity audit cell
)

// e9ParticipantCounts is the fan-out sweep.
var e9ParticipantCounts = []int{2, 4, 8}

// RunE9Tpc validates the paper's §3/§4 claim that the chosen primitive
// "can implement currently known protocols" by measuring the two-phase
// commit built entirely on the no-wait send (internal/tpc): message cost
// and latency per transaction as participants scale, and an atomicity
// audit under message loss and node crashes.
func RunE9Tpc(scale Scale) (*Result, error) {
	transactions := scale.N(e9Transactions, 4)
	res := &Result{ID: "E9 (extension: §3 protocol expressiveness)"}
	tab := metrics.NewTable(
		"Two-phase commit on the no-wait send: cost vs participant count",
		"participants", "faults", "transactions", "committed", "msgs/tx", "mean-latency", "atomicity")
	res.Tables = append(res.Tables, tab)

	for _, n := range e9ParticipantCounts {
		row, err := runE9Cell(transactions, n, 0, false)
		if err != nil {
			return nil, err
		}
		tab.AddRow(n, "none", transactions, row.committed, row.msgsPerTx, row.mean.String(), row.atomicity)
		if row.atomicity != "all-or-nothing" {
			res.Deviatesf("atomicity violated with %d participants, no faults", n)
		}
		// The theoretical floor is 4 messages per participant (prepare,
		// vote, decision, ack) plus 2 for the client exchange.
		floor := float64(4*n + 2)
		if row.msgsPerTx < floor-0.01 {
			res.Deviatesf("%d participants measured %.1f msgs/tx below the 4n+2 floor %.1f",
				n, row.msgsPerTx, floor)
		} else if row.msgsPerTx < floor+1.0 {
			res.Holdsf("%d participants cost %.1f msgs/tx (theoretical floor 4n+2 = %.0f)",
				n, row.msgsPerTx, floor)
		}
	}

	// Fault-injected cell: loss plus a participant crash mid-run.
	n := e9ParticipantCounts[len(e9ParticipantCounts)-1]
	row, err := runE9Cell(transactions, n, e9LossRate, true)
	if err != nil {
		return nil, err
	}
	tab.AddRow(n, fmt.Sprintf("%.0f%% loss + crash", e9LossRate*100),
		transactions, row.committed, row.msgsPerTx, row.mean.String(), row.atomicity)
	if row.atomicity == "all-or-nothing" {
		res.Holdsf("atomicity preserved under %.0f%% loss and a participant crash (%d/%d committed, retries cost %.1f msgs/tx)",
			e9LossRate*100, row.committed, transactions, row.msgsPerTx)
	} else {
		res.Deviatesf("atomicity violated under faults: %s", row.atomicity)
	}
	return res, nil
}

type e9Row struct {
	committed int
	msgsPerTx float64
	mean      time.Duration
	atomicity string
}

func runE9Cell(transactions, nParts int, loss float64, crash bool) (e9Row, error) {
	var row e9Row
	w := guardian.NewWorld(guardian.Config{
		Net: netsim.Config{Seed: 17, BaseLatency: e9NetLatency, LossRate: loss},
	})
	w.MustRegister(tpc.CoordinatorDef())
	w.MustRegister(tpc.NewParticipantDef("e9_participant", func() tpc.Resource {
		return tpc.NewSlotResource(map[string]int64{"unit": 1 << 30})
	}))
	coordNode := w.MustAddNode("coord")
	created, err := coordNode.Bootstrap(tpc.CoordinatorDefName, int64(300), int64(5))
	if err != nil {
		return row, err
	}
	parts := make([]xrep.PortName, nParts)
	partNodes := make([]*guardian.Node, nParts)
	partIDs := make([]uint64, nParts)
	for i := 0; i < nParts; i++ {
		pn := w.MustAddNode(fmt.Sprintf("part%d", i))
		pc, err := pn.Bootstrap("e9_participant")
		if err != nil {
			return row, err
		}
		parts[i] = pc.Ports[0]
		partNodes[i] = pn
		partIDs[i] = pc.GuardianID
	}
	clientNode := w.MustAddNode("client")
	_, client, err := clientNode.NewDriver("c")
	if err != nil {
		return row, err
	}

	clock := w.Clock()
	stats := w.Stats()
	before := stats.MessagesSent.Load()

	// An aborted or undecided transaction is an outcome, not a failure: its
	// latency counts, and the audit below holds participants to row.committed.
	f, err := runSequential(clock, transactions, func(i int) error {
		if crash && i == transactions/2 {
			partNodes[0].Crash()
			if err := partNodes[0].Restart(); err != nil {
				return err
			}
		}
		txid := fmt.Sprintf("tx%03d", i)
		ops := make(xrep.Seq, nParts)
		for j, pp := range parts {
			ops[j] = xrep.Seq{pp, tpc.SlotOp("unit", 1)}
		}
		m, err := sendprim.Call(client, created.Ports[0], tpc.ClientReplyType,
			sendprim.CallOptions{Timeout: 2 * time.Second, Retries: 11}, "begin", txid, ops)
		var undecided *sendprim.CallError
		switch {
		case errors.As(err, &undecided): // no reply in 12 attempts: an outcome
		case err != nil:
			return err
		case m.Command == tpc.OutcomeCommitted:
			row.committed++
		}
		return nil
	})
	if err == nil {
		err = f.failedErr("transactions")
	}
	if err != nil {
		return row, err
	}
	waitQuiesce(w)
	time.Sleep(20 * time.Millisecond)
	row.msgsPerTx = float64(stats.MessagesSent.Load()-before) / float64(transactions)
	row.mean = f.Latency.Mean

	// Atomicity audit: every participant must have applied exactly the
	// committed transactions' units.
	row.atomicity = "all-or-nothing"
	for i := range parts {
		pg, ok := partNodes[i].GuardianByID(partIDs[i])
		if !ok {
			row.atomicity = fmt.Sprintf("participant %d missing", i)
			break
		}
		r, ok := tpc.ParticipantResource(pg)
		if !ok || r == nil {
			row.atomicity = fmt.Sprintf("participant %d uninitialized", i)
			break
		}
		if got := r.(*tpc.SlotResource).Committed("unit"); got != int64(row.committed) {
			row.atomicity = fmt.Sprintf("participant %d has %d units, want %d", i, got, row.committed)
			break
		}
	}
	return row, nil
}
