package dst

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/guardian"
	"repro/internal/nameserv"
	"repro/internal/netsim"
)

// TestAuditorTeeth shows every check of the one bank auditor going red
// on every static shape it applies to. Each shape finishes an honest
// quiet run, then audits it repeatedly, each time after doctoring one
// input — and each doctoring must be reported under exactly its own
// invariant name, on the doctored shard. A check silently dropped from
// the shared auditor, or skipped for one shape, fails here.
func TestAuditorTeeth(t *testing.T) {
	for _, topo := range []Topology{{1, 1}, {1, 3}, {4, 1}, {3, 3}} {
		topo := topo
		t.Run(fmt.Sprintf("%dx%d", topo.Shards, topo.ReplFactor), func(t *testing.T) {
			// The last shard is the doctored one, so a loop that stops
			// early is caught too.
			si := topo.Shards - 1
			got := make(map[string][]Violation)
			opts := Options{Seed: 2, Profile: QuietProfile(), Topology: &topo, OpsPerClient: 6}
			rep := run(opts, nil, func(wl workload, w *guardian.World, rep *Report, crashed bool) {
				s := wl.(*shardedWorkload)
				audit := func(name string, crashed bool) {
					sub := &Report{}
					s.check(w, sub, crashed)
					got[name] = sub.Violations
				}
				tally := &s.books.tallies[si]

				// An applies bound below the real count. First, and the
				// only audit run as crash-free: auditing a plain shard
				// restarts it, which zeroes the volatile counter.
				issued := tally.issued
				tally.issued = 0
				audit("exactly-once", false)
				tally.issued = issued

				s.check(w, rep, true) // the honest verdict

				// An expected balance off by one.
				led := s.shardLedgers[si][0]
				led.expA++
				audit("balance", true)
				led.expA--

				// Conservation sums off by one: with every call acked the
				// upper bound is tight, so one unit less must trip it.
				tally.issuedDep--
				audit("conservation", true)
				tally.issuedDep++

				if !topo.replicated() {
					return
				}
				// A follower log held short of the leader's: cut one
				// follower off, then fund a fresh ledger through the
				// ordinary client path — honestly booked, acknowledged by
				// the remaining quorum, never shipped to the cut member.
				leader, _ := s.findLeader(w, si)
				follower := s.shardNodes[si][0]
				if follower == leader {
					follower = s.shardNodes[si][1]
				}
				w.Net().Partition([]netsim.Addr{clientsNode}, []netsim.Addr{netsim.Addr(follower)})
				pr := checker(w, rep, "doctor")
				ns, err := nameserv.NewClient(pr, s.nsPort)
				if err != nil {
					t.Errorf("nameserv client: %v", err)
					return
				}
				caller, link, err := s.dial(pr, ns, si, 1)
				if err != nil {
					t.Errorf("dial shard %d: %v", si, err)
					return
				}
				extra := &clientLedger{acctA: "extra-a", acctB: "extra-b"}
				s.books.fund(extra, si, link)
				caller.Close()
				if !extra.funded {
					t.Errorf("quorum of shard %d did not acknowledge the extra funding", si)
				}
				audit("replication", true)
				w.Net().Heal()
			})

			if rep.Failed() || rep.OpsFailed != 0 {
				t.Fatalf("honest quiet run is not a clean baseline:\n%s", rep)
			}
			want := []string{"exactly-once", "balance", "conservation"}
			if topo.replicated() {
				want = append(want, "replication")
			}
			scope := fmt.Sprintf("shard %d:", si)
			for _, name := range want {
				vs := got[name]
				if len(vs) == 0 {
					t.Errorf("doctored %s input was not reported", name)
				}
				for _, v := range vs {
					if v.Invariant != name || !strings.Contains(v.Detail, scope) {
						t.Errorf("doctored %s input on %s reported as %s: %s", name, scope, v.Invariant, v.Detail)
					}
				}
			}
		})
	}
}
