package exp

import (
	"fmt"

	"repro/internal/dst"
	"repro/internal/metrics"
)

// The deterministic-simulation sweep at full size.
const (
	e11SeedsPerCell = 6 // seeds each (profile, workload) cell runs
	// e11Clients and e11OpsPerClient size each simulated run.
	e11Clients      = 3
	e11OpsPerClient = 12
)

// RunE11DST sweeps the deterministic simulation harness across every fault
// profile and both workloads, checking the invariants the paper states only
// informally: conservation of money and exactly-once application for the
// bank (§3.5), no-overbooking for the airline (§2.3), and
// recovery-equals-replay for both (§2.2). A control arm re-runs the lossy
// profile with the at-most-once filter deliberately disabled; the sweep
// must catch that injected bug, or the harness is not discriminating.
func RunE11DST(scale Scale) (*Result, error) {
	seeds := scale.N(e11SeedsPerCell, 2)
	res := &Result{ID: "E11 (extension: deterministic simulation of the failure model)"}
	tab := metrics.NewTable(
		fmt.Sprintf("Seed sweep: %d seeds per cell, %d clients x %d ops",
			seeds, e11Clients, e11OpsPerClient),
		"profile", "workload", "seeds", "pass", "fail", "acked", "retries", "lost", "dup", "partition")
	res.Tables = append(res.Tables, tab)

	type cell struct {
		profile  dst.Profile
		workload string
		bug      string
	}
	var cells []cell
	for _, prof := range dst.Profiles() {
		for _, wl := range []string{"bank", "airline"} {
			cells = append(cells, cell{profile: prof, workload: wl})
		}
	}
	// The control arm: same lossy network, dedup filter off.
	cells = append(cells, cell{profile: dst.LossyProfile(), workload: "bank", bug: dst.BugDisableDedup})

	cleanFailures := 0
	bugCaught := 0
	var firstClean *dst.Report
	for _, c := range cells {
		var pass, fail, acked, retries, lost, dup, part int64
		for seed := int64(1); seed <= int64(seeds); seed++ {
			rep := dst.Run(dst.Options{
				Seed:         seed,
				Workload:     c.workload,
				Profile:      c.profile,
				Clients:      e11Clients,
				OpsPerClient: e11OpsPerClient,
				Bug:          c.bug,
			})
			acked += rep.OpsAcked
			retries += rep.Retries
			lost += rep.Net.Lost
			dup += rep.Net.Duplicated
			part += rep.Net.Partition
			if rep.Failed() {
				fail++
				if c.bug == "" && firstClean == nil {
					firstClean = rep
				}
			} else {
				pass++
			}
		}
		label := c.profile.Name
		if c.bug != "" {
			label += "+" + c.bug
			bugCaught += int(fail)
		} else {
			cleanFailures += int(fail)
		}
		tab.AddRow(label, c.workload, int64(seeds), pass, fail,
			acked, retries, lost, dup, part)
	}

	if cleanFailures == 0 {
		res.Holdsf("all invariants (conservation, exactly-once, no-overbooking, recovery==replay) held over %d simulated runs across %d fault profiles",
			seeds*2*len(dst.Profiles()), len(dst.Profiles()))
	} else {
		res.Deviatesf("%d clean runs violated an invariant; first: seed %d (%s/%s): %s",
			cleanFailures, firstClean.Seed, firstClean.Workload, firstClean.Profile,
			firstClean.Violations[0].Invariant)
	}
	if bugCaught > 0 {
		res.Holdsf("the sweep is discriminating — the injected %s bug was caught in %d/%d control runs",
			dst.BugDisableDedup, bugCaught, seeds)
	} else {
		res.Deviatesf("injected %s bug escaped all %d control runs",
			dst.BugDisableDedup, seeds)
	}
	return res, nil
}
