// Command dst runs the deterministic simulation harness: a seeded fault
// schedule (drop/dup/reorder/partition/crash-restart, composite partition
// shapes, crash waves, storage-fault bursts) against the airline workload
// or the bank workload — whose world is shaped by -shards and -replfactor
// alone, from one branch on one node to 67 replica groups — with
// invariant checkers for conservation of money, exactly-once application,
// no-overbooking, and recovery-equals-replay (see DESIGN.md §7, §13).
//
// Usage:
//
//	dst -seed 42                          # one bank run (one plain branch) under the mixed profile
//	dst -seeds 100 -par 4                 # parallel sweep of seeds 1..100
//	dst -profile replica -shards 1 -replfactor 3               # one replica group, primary killed
//	dst -profile combined -shards 67 -replfactor 3 -cpevery 4  # 200-node run
//	dst -profile combined -ring 4,2,1     # consistent-hash ring, live join/leave rebalancing
//	dst -bug disable-dedup                # inject the control-arm bug
//	dst -reprofile repro.txt              # write failing repro lines to a file
//	dst -profiles                         # list fault profiles
//
// Exits 1 if any seed violates an invariant; failing runs are shrunk to a
// minimal fault schedule and printed with their reproduction line. Every
// flag a printed repro line mentions is accepted here, so a line copied
// from CI replays locally verbatim.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/dst"
	"repro/internal/durable"
)

// parseRing turns "shards,joins,leaves" into a ring topology — the same
// triple Repro() prints for ring runs.
func parseRing(s string) (*dst.RingTopology, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return nil, fmt.Errorf("-ring wants shards,joins,leaves, got %q", s)
	}
	var topo dst.RingTopology
	for i, dst := range []*int{&topo.Shards, &topo.Joins, &topo.Leaves} {
		v, err := strconv.Atoi(parts[i])
		if err != nil {
			return nil, fmt.Errorf("bad ring count %q: %v", parts[i], err)
		}
		*dst = v
	}
	return &topo, nil
}

// parseStorage turns "syncfail,shortwrite,corrupttail" into a fault
// config — the same triple Repro() prints.
func parseStorage(s string) (*durable.FaultConfig, error) {
	rates := strings.Split(s, ",")
	if len(rates) != 3 {
		return nil, fmt.Errorf("-storage wants syncfail,shortwrite,corrupttail, got %q", s)
	}
	var cfg durable.FaultConfig
	for i, dst := range []*float64{&cfg.SyncFailRate, &cfg.ShortWriteRate, &cfg.CorruptTailRate} {
		v, err := strconv.ParseFloat(rates[i], 64)
		if err != nil {
			return nil, fmt.Errorf("bad storage rate %q: %v", rates[i], err)
		}
		*dst = v
	}
	return &cfg, nil
}

func main() {
	var (
		seed       = flag.Int64("seed", 1, "first (or only) seed")
		seeds      = flag.Int("seeds", 1, "number of consecutive seeds to sweep")
		par        = flag.Int("par", 1, "seeds run in parallel (each fully isolated)")
		workload   = flag.String("workload", "bank", "workload: bank or airline")
		profile    = flag.String("profile", "", "fault profile (default mixed; see -profiles)")
		horizon    = flag.Duration("horizon", 0, "override the profile's fault-placement window")
		clients    = flag.Int("clients", 0, "concurrent clients (default 3)")
		ops        = flag.Int("ops", 0, "operations per client (default 12)")
		bug        = flag.String("bug", "", "inject a known bug (disable-dedup) as a harness check")
		shards     = flag.Int("shards", 0, "bank topology: number of independent branches (default 1)")
		ringTopo   = flag.String("ring", "", "consistent-hash ring with live rebalancing: shards,joins,leaves")
		replfactor = flag.Int("replfactor", 0, "replicas per shard (0/1 plain, odd >=3 replicated)")
		cpevery    = flag.Int("cpevery", 0, "checkpoint the branch every N mutations")
		storage    = flag.String("storage", "", "storage fault rates: syncfail,shortwrite,corrupttail")
		reprofile  = flag.String("reprofile", "", "write failing repro lines to this file (CI artifact)")
		list       = flag.Bool("profiles", false, "list fault profiles and exit")
		verbose    = flag.Bool("v", false, "print every report, not only failures")
	)
	flag.Parse()

	if *list {
		fmt.Println("Fault profiles:")
		for _, p := range dst.Profiles() {
			fmt.Printf("  %-12s loss=%.2f dup=%.2f reorder=%.2f crashes=%d partitions=%d islands=%d waves=%d bursts=%d\n",
				p.Name, p.Loss, p.Dup, p.Reorder, p.Crashes, p.Partitions,
				p.Islands, p.Waves, p.StorageBursts)
		}
		return
	}

	opts := dst.Options{
		Workload:        *workload,
		Clients:         *clients,
		OpsPerClient:    *ops,
		Bug:             *bug,
		CheckpointEvery: *cpevery,
	}
	if *profile != "" {
		p, err := dst.ProfileByName(*profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts.Profile = p
	}
	if *horizon > 0 {
		opts.Profile.Horizon = *horizon
	}
	if *shards > 0 || *replfactor > 0 {
		opts.Topology = &dst.Topology{Shards: max(*shards, 1), ReplFactor: *replfactor}
	}
	if *ringTopo != "" {
		topo, err := parseRing(*ringTopo)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts.Ring = topo
	}
	if *storage != "" {
		cfg, err := parseStorage(*storage)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts.StorageFaults = cfg
	}

	res := dst.Sweep(dst.SweepOptions{
		Opts:        opts,
		StartSeed:   *seed,
		Count:       *seeds,
		Parallelism: *par,
		Shrink:      true,
		Progress: func(done, total int, rep *dst.Report) {
			if rep.Failed() {
				fmt.Printf("[%d/%d] seed %-6d FAIL\n", done, total, rep.Seed)
			} else if *verbose {
				fmt.Print(rep.String())
			} else {
				fmt.Printf("[%d/%d] seed %-6d %-8s %-12s PASS (%d/%d ops acked, %d nodes, %v)\n",
					done, total, rep.Seed, opts.Workload, rep.Profile,
					rep.OpsAcked, rep.OpsIssued, rep.Nodes, rep.RealElapsed.Round(time.Millisecond))
			}
		},
	})

	fmt.Print(res.String())
	if !res.Failed() {
		return
	}
	if *reprofile != "" {
		lines := strings.Join(res.ReproLines(), "\n") + "\n"
		if err := os.WriteFile(*reprofile, []byte(lines), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *reprofile, err)
		} else {
			fmt.Fprintf(os.Stderr, "wrote %d repro line(s) to %s\n", len(res.ReproLines()), *reprofile)
		}
	}
	fmt.Fprintf(os.Stderr, "dst: %d of %d seeds violated an invariant\n", len(res.Failures()), *seeds)
	os.Exit(1)
}
