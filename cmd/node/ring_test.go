package main

// The acceptance test for the consistent-hash ring tentpole: a 3-shard
// bank — every shard, the name service, and the 2PC coordinator its own
// OS process over real UDP — takes live traffic, then a fourth shard
// joins and the live rebalance is killed at every handoff window by an
// injected -crash exit:
//
//	before-cut      the source is about to durably seal the moving keys;
//	                nothing has shipped. The re-driven pull must restart
//	                the handoff from scratch.
//	after-cut       the keys are sealed at the source but the install
//	                never happened. The re-driven pull must re-offer the
//	                same cut, not lose the sealed accounts.
//	before-install  the destination dies with the snapshot in hand but
//	                nothing durable. Re-pull must re-ship.
//	after-install   the destination durably owns the keys but the ack and
//	                the epoch flip died with it. Re-driving must converge
//	                without applying the moved ops twice.
//
// After each kill the dead process restarts from its WAL and a second
// rebalance attempt must commit the next epoch. The audit then reads
// every account through the ring (exactly-once: balances unchanged by
// the crash) and sums the per-shard shutdown totals (conservation: no
// account lost or duplicated by the interrupted migration).

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var shardLine = regexp.MustCompile(`shard member=(\S+) epoch=(\d+) accounts=(\d+) total=(-?\d+)`)

func TestRingHandoffCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	bin := buildNode(t)
	for _, window := range []string{"before-cut", "after-cut", "before-install", "after-install"} {
		t.Run(window, func(t *testing.T) {
			runRingHandoffRound(t, bin, window)
		})
	}
}

func runRingHandoffRound(t *testing.T, bin, window string) {
	data := t.TempDir()
	names := []string{"ns", "txc", "s1", "s2", "s3", "s4"}
	addrs, peers := freePeers(t, names...)

	ns := startNode(t, bin, "-name", "ns", "-listen", addrs[0], "-peers", peers, "-host", "nameserv")
	nsPort := ns.port("name_service_port")
	txc := startNode(t, bin, "-name", "txc", "-listen", addrs[1], "-peers", peers,
		"-host", "txncoord", "-data", data)
	coordPort := txc.port("tpc_coordinator_port")

	// shardArgs builds one shard server's argv; crash is the injected
	// handoff crash spec ("" for none).
	shardArgs := func(i int, crash string) []string {
		name := names[i]
		args := []string{"-name", name, "-listen", addrs[i], "-peers", peers,
			"-host", "bank", "-shard", name, "-data", data, "-cpevery", "4"}
		if crash != "" {
			args = append(args, "-crash", crash+":1")
		}
		return args
	}
	// Cut windows fire on a handoff source (an original shard); install
	// windows fire on the destination (the joiner).
	victim := 2 // s1
	if strings.Contains(window, "install") {
		victim = 5 // s4
	}

	shards := make(map[string]*nodeProc)
	memberSpec := func(p *nodeProc, name string) string {
		return fmt.Sprintf("%s=%s,%s", name, p.port("bank_branch_port"), p.port("amo_req_port"))
	}
	var specs []string
	for i := 2; i <= 4; i++ {
		crash := ""
		if i == victim {
			crash = window
		}
		p := startNode(t, bin, shardArgs(i, crash)...)
		shards[names[i]] = p
		specs = append(specs, memberSpec(p, names[i]))
	}

	// ctlArgs is one ring client process's argv; ctl runs it to completion
	// and returns its combined output.
	ctlArgs := func(name string, extra ...string) []string {
		return append([]string{"-name", name, "-peers", peers, "-ns", nsPort,
			"-ring", "accounts", "-coord", coordPort,
			"-timeout", "200ms", "-retries", "40"}, extra...)
	}
	ctl := func(name string, extra ...string) (string, error) {
		return runNode(bin, ctlArgs(name, extra...)...)
	}

	out, err := ctl("boot", "-ringboot", strings.Join(specs, ";"))
	if err != nil || !strings.Contains(out, "bootstrapped with 3 members") {
		t.Fatalf("ring bootstrap: %v\n%s", err, out)
	}

	// Live traffic before the join: six accounts spread across the ring,
	// plus transfers (cross-shard pairs ride 2PC through txc).
	var setup []string
	total := int64(0)
	expect := map[string]int64{}
	for i := 1; i <= 6; i++ {
		a := fmt.Sprintf("acct%d", i)
		setup = append(setup, "-op", "open "+a, "-op", fmt.Sprintf("deposit %s %d", a, 100*i))
		expect[a] = int64(100 * i)
		total += int64(100 * i)
	}
	setup = append(setup,
		"-op", "transfer acct1 acct4 30",
		"-op", "transfer acct2 acct5 10")
	expect["acct1"] -= 30
	expect["acct4"] += 30
	expect["acct2"] -= 10
	expect["acct5"] += 10
	out, err = ctl("teller", setup...)
	if err != nil || strings.Count(out, ": ok") != 12+2 {
		t.Fatalf("setup traffic: %v\n%s", err, out)
	}

	// Start the joiner (the install-window victim carries its crash spec
	// from shardArgs above) and drive the rebalance into the crash.
	joiner := startNode(t, bin, shardArgs(5, map[bool]string{true: window}[victim == 5])...)
	shards["s4"] = joiner
	joinSpec := memberSpec(joiner, "s4")

	// The first driver would spend its whole retry budget on the dead
	// victim; once the victim's exit is read it is killed instead — the
	// driver is re-runnable after its own crash, which join2 relies on.
	join1 := spawn(t, bin, ctlArgs("join1", "-ringjoin", joinSpec)...)
	code := shards[names[victim]].exitCode(30 * time.Second)
	out = join1.kill()
	if code != 137 {
		t.Fatalf("%s exit code %d, want 137 (injected crash at %s)\njoin output:\n%s",
			names[victim], code, window, out)
	}

	// The dead shard restarts from its WAL — no crash spec this time —
	// and a second attempt must finish the interrupted epoch flip.
	shards[names[victim]] = startNode(t, bin, shardArgs(victim, "")...)
	out, err = ctl("join2", "-ringjoin", joinSpec)
	if err != nil || !strings.Contains(out, "epoch 2 committed (join s4)") {
		t.Fatalf("re-driven join: %v\n%s", err, out)
	}

	// Exactly-once: every balance read through the rebalanced ring must
	// equal the pre-crash ledger, and a post-recovery deposit must land.
	var audit []string
	for i := 1; i <= 6; i++ {
		audit = append(audit, "-op", fmt.Sprintf("balance acct%d", i))
	}
	audit = append(audit, "-op", "deposit acct1 5", "-op", "balance acct1")
	expect["acct1"] += 5
	total += 5
	out, err = ctl("audit", audit...)
	if err != nil {
		t.Fatalf("audit: %v\n%s", err, out)
	}
	for i := 1; i <= 6; i++ {
		a := fmt.Sprintf("acct%d", i)
		want := expect[a]
		if i == 1 {
			want -= 5 // first balance read precedes the extra deposit
		}
		if !strings.Contains(out, fmt.Sprintf("op \"balance %s\": balance_is %d", a, want)) {
			t.Errorf("balance %s != %d after %s recovery:\n%s", a, want, window, out)
		}
	}
	if !strings.Contains(out, fmt.Sprintf("op \"balance acct1\": balance_is %d", expect["acct1"])) {
		t.Errorf("post-recovery deposit lost:\n%s", out)
	}

	// Conservation: the per-shard shutdown snapshots must cover every
	// account exactly once and sum to the money put in.
	accounts, sum := 0, int64(0)
	for _, name := range []string{"s1", "s2", "s3", "s4"} {
		tail := shards[name].interrupt()
		g := shardLine.FindStringSubmatch(tail)
		if g == nil {
			t.Fatalf("%s printed no shard line:\n%s", name, tail)
		}
		if g[2] != "2" {
			t.Errorf("%s still serves epoch %s, want 2", name, g[2])
		}
		n, _ := strconv.Atoi(g[3])
		accounts += n
		v, _ := strconv.ParseInt(g[4], 10, 64)
		sum += v
	}
	if accounts != 6 {
		t.Errorf("shards hold %d accounts, want 6 (lost or duplicated by the %s handoff)", accounts, window)
	}
	if sum != total {
		t.Errorf("shards hold %d total, want %d (conservation broken by the %s handoff)", sum, total, window)
	}
	t.Logf("window %s: join re-driven, %d accounts, total %d", window, accounts, sum)
}
