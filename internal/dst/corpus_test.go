package dst

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/durable"
)

// parseCorpusLine builds the Options for one seeds.txt entry:
//
//	<seed> <workload> <profile> [cpevery=N] [shards=N] [replfactor=N]
//	[ring=shards,joins,leaves] [storage=syncfail,shortwrite,corrupttail]
func parseCorpusLine(line string) (Options, error) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Options{}, fmt.Errorf("want at least seed, workload, profile: %q", line)
	}
	seed, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return Options{}, fmt.Errorf("bad seed %q: %v", fields[0], err)
	}
	profile, err := ProfileByName(fields[2])
	if err != nil {
		return Options{}, err
	}
	opts := Options{Seed: seed, Workload: fields[1], Profile: profile}
	var topo Topology
	for _, f := range fields[3:] {
		key, val, _ := strings.Cut(f, "=")
		switch key {
		case "repl":
			return Options{}, fmt.Errorf("corpus flag %q is retired: write \"shards=1 replfactor=3\"", f)
		case "cpevery":
			if opts.CheckpointEvery, err = strconv.Atoi(val); err != nil {
				return Options{}, fmt.Errorf("bad cpevery %q: %v", val, err)
			}
		case "shards":
			if topo.Shards, err = strconv.Atoi(val); err != nil {
				return Options{}, fmt.Errorf("bad shards %q: %v", val, err)
			}
		case "replfactor":
			if topo.ReplFactor, err = strconv.Atoi(val); err != nil {
				return Options{}, fmt.Errorf("bad replfactor %q: %v", val, err)
			}
		case "ring":
			counts := strings.Split(val, ",")
			if len(counts) != 3 {
				return Options{}, fmt.Errorf("ring wants shards,joins,leaves, got %q", val)
			}
			opts.Ring = &RingTopology{}
			for i, dst := range []*int{&opts.Ring.Shards, &opts.Ring.Joins, &opts.Ring.Leaves} {
				if *dst, err = strconv.Atoi(counts[i]); err != nil {
					return Options{}, fmt.Errorf("bad ring count %q: %v", counts[i], err)
				}
			}
		case "storage":
			rates := strings.Split(val, ",")
			if len(rates) != 3 {
				return Options{}, fmt.Errorf("storage wants 3 rates, got %q", val)
			}
			var cfg durable.FaultConfig
			for i, dst := range []*float64{&cfg.SyncFailRate, &cfg.ShortWriteRate, &cfg.CorruptTailRate} {
				if *dst, err = strconv.ParseFloat(rates[i], 64); err != nil {
					return Options{}, fmt.Errorf("bad storage rate %q: %v", rates[i], err)
				}
			}
			opts.StorageFaults = &cfg
		default:
			return Options{}, fmt.Errorf("unknown corpus flag %q", f)
		}
	}
	if topo.Shards > 0 {
		opts.Topology = &topo
	}
	return opts, nil
}

// TestCorpusRetiredToken: a corpus line still carrying the retired "repl"
// token is rejected with the spelling that replaced it, not skipped.
func TestCorpusRetiredToken(t *testing.T) {
	_, err := parseCorpusLine("1 bank replica repl")
	if err == nil || !strings.Contains(err.Error(), "shards=1 replfactor=3") {
		t.Fatalf("retired token: got %v, want an error naming shards=1 replfactor=3", err)
	}
}

// TestSeedCorpus replays testdata/seeds.txt: every corpus entry runs to
// a green verdict, deterministically, on every commit. The corpus is the
// cheap standing sweep — seeds that once exercised failover, fork+heal,
// storage damage, and sharded topologies — so a regression in any of
// those paths trips here before the nightly multi-seed sweep sees it.
func TestSeedCorpus(t *testing.T) {
	f, err := os.Open("testdata/seeds.txt")
	if err != nil {
		t.Fatalf("seed corpus missing: %v", err)
	}
	defer f.Close()

	entries := 0
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entries++
		opts, err := parseCorpusLine(line)
		if err != nil {
			t.Fatalf("seeds.txt:%d: %v", lineNo, err)
		}
		name := fmt.Sprintf("%s/%s/seed=%d", opts.Workload, opts.Profile.Name, opts.Seed)
		t.Run(name, func(t *testing.T) {
			rep := Run(opts)
			if rep.Failed() {
				t.Fatalf("corpus seed regressed:\n%s", rep)
			}
			if rep.OpsAcked == 0 {
				t.Fatalf("corpus seed acked nothing:\n%s", rep)
			}
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading corpus: %v", err)
	}
	if entries < 15 {
		t.Fatalf("corpus has only %d entries — the standing sweep has been gutted", entries)
	}
}
