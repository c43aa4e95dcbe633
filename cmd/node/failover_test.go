package main

// The acceptance test for the replication tentpole: a three-member
// replica group of bank branches — each its own OS process over real UDP
// — loses its primary at each replication window (killed from inside by
// an injected -crash exit as abrupt as SIGKILL, or from outside by an
// actual kill -9), and a surviving follower must win the election, take
// the branch over from the shipped log, re-bind the well-known name, and
// serve the same clients with money conserved and every confirmed
// transfer applied exactly once.
//
// The windows:
//
//	before-ship   the batch is durable on the primary only; nothing has
//	              reached the network. The client never saw an ack, so
//	              the retry must apply fresh on the new leader.
//	after-ship    the batch is on the wire; the follower-fsync race is
//	              live. Either the new leader replays it or the retry
//	              applies it — never both.
//	after-quorum  a majority holds the batch; the reply died with the
//	              primary. The retry must hit the replicated dedup state
//	              and get the cached outcome, not a second execution.
//	sigkill       an external kill -9 between client batches: the control
//	              round exercising failover with no cooperation at all.
//
// Transfers move distinct powers of three, so the destination balance is
// a base-3 tally of exactly which transfers executed how many times (see
// crash_test.go).

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var replLine = regexp.MustCompile(`repl leader=(\S+) term=(\d+) self=(\S+) shipped=(\d+) applied=(\d+) checkpoints=(\d+) fenced=(\d+) elections=(\d+) takeovers=(\d+)`)

func TestReplicaFailoverMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	bin := buildNode(t)
	for _, window := range []string{"before-ship", "after-ship", "after-quorum", "sigkill"} {
		t.Run(window, func(t *testing.T) {
			runFailoverRound(t, bin, window)
		})
	}
}

func runFailoverRound(t *testing.T, bin, window string) {
	data := t.TempDir()
	names := []string{"ns", "m1", "m2", "m3"}
	addrs, peers := freePeers(t, names...)

	ns := startNode(t, bin, "-name", "ns", "-listen", addrs[0], "-peers", peers, "-host", "nameserv")
	nsPort := ns.port("name_service_port")

	members := make(map[string]*nodeProc)
	for i, m := range []string{"m1", "m2", "m3"} {
		args := []string{"-name", m, "-listen", addrs[i+1], "-peers", peers,
			"-host", "bank", "-data", data, "-cpevery", "4",
			"-group", "bankgrp", "-members", "m1,m2,m3",
			"-service", "bank/main", "-ns", nsPort,
			"-hb", "25ms", "-threshold", "2"}
		if m == "m1" && window != "sigkill" {
			// The 5th replicated batch lands mid-run, with client calls in
			// flight — exactly where dying in this window hurts most.
			args = append(args, "-crash", window+":5")
		}
		members[m] = startNode(t, bin, args...)
	}

	// teller runs one client process that resolves (and on every retry
	// re-resolves) the branch through the name service.
	teller := func(name, timeout string, retries int, ops []string) (string, error) {
		args := []string{"-name", name, "-peers", peers, "-ns", nsPort,
			"-resolve", "bank/main", "-timeout", timeout, "-retries", strconv.Itoa(retries)}
		for _, op := range ops {
			args = append(args, "-op", op)
		}
		return runNode(bin, args...)
	}

	// Setup must fully confirm even if the injected crash lands here: the
	// retries ride the failover. (With one replicated batch per mutating
	// op the 5th firing is a transfer, but the invariants don't care.)
	out, err := teller("setup", "250ms", 80, []string{
		"open alice", "open bob", fmt.Sprintf("deposit alice %d", seedDeposit),
	})
	if err != nil || strings.Count(out, ": ok") != 3 {
		t.Fatalf("setup: %v\n%s", err, out)
	}

	confirmed := make(map[int]bool)
	issued := 0
	// stream issues count transfers and requires every one to confirm:
	// with re-resolution and generous retries, failover must be invisible
	// to the client beyond latency.
	stream := func(name string, count int) {
		t.Helper()
		var ops []string
		first := issued
		for i := 0; i < count; i++ {
			ops = append(ops, fmt.Sprintf("transfer alice bob %d", pow3(issued)))
			issued++
		}
		out, err := teller(name, "150ms", 80, ops)
		for i := first; i < issued; i++ {
			if strings.Contains(out, fmt.Sprintf("op \"transfer alice bob %d\": ok", pow3(i))) {
				confirmed[i] = true
			}
		}
		if err != nil || len(confirmed) != issued {
			t.Fatalf("%s: %d/%d transfers confirmed, err %v\n%s", name, len(confirmed), issued, err, out)
		}
	}

	if window == "sigkill" {
		stream("pre", 2)
		members["m1"].kill()
		stream("post", 4)
	} else {
		stream("stream", 6)
		// The stream outlived the crash, so m1 must be dead — of exactly
		// the injected exit, not anything else.
		if code := members["m1"].exitCode(10 * time.Second); code != 137 {
			t.Fatalf("m1 exit code %d, want 137 (injected crash at %s)", code, window)
		}
	}

	// The audit: a fresh client resolves the (re-bound) name and reads the
	// balances; conservation and the base-3 tally must hold on whatever
	// member now serves the branch.
	out, err = teller("verify", "250ms", 80, []string{"balance alice", "balance bob"})
	if err != nil {
		t.Fatalf("verify: %v\n%s", err, out)
	}
	checkInvariants(t, 0, balanceOf(t, out, "alice"), balanceOf(t, out, "bob"), confirmed, issued)

	// Shutdown reports from the survivors: exactly the takeover story —
	// a new leader that is not m1, serving the branch.
	leaders := 0
	takeovers := 0
	for _, m := range []string{"m2", "m3"} {
		tail := members[m].interrupt()
		g := replLine.FindStringSubmatch(tail)
		if g == nil {
			t.Fatalf("%s printed no repl line:\n%s", m, tail)
		}
		if g[1] == "m1" {
			t.Errorf("%s still believes dead m1 leads:\n%s", m, tail)
		}
		if g[1] == m && g[3] == "true" {
			leaders++
			if !strings.Contains(tail, "applies ") {
				t.Errorf("leader %s serves no branch (no applies line):\n%s", m, tail)
			}
		}
		n, _ := strconv.Atoi(g[9])
		takeovers += n
	}
	if leaders != 1 {
		t.Errorf("want exactly 1 surviving leader, got %d", leaders)
	}
	if takeovers == 0 {
		t.Error("no survivor counted a takeover")
	}
	t.Logf("window %s: %d/%d transfers confirmed", window, len(confirmed), issued)
}
