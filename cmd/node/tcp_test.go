package main

// The acceptance tests for the stream-transport tentpole. The first is
// the TCP mirror of the PR 3 cross-process UDP test: two OS processes
// exchange framed TCP traffic while both fault wrappers inject connection
// resets and half-open write stalls, and the exactly-once audit must hold
// across every reconnect — plus one account whose multi-megabyte name
// rides a single frame no datagram could carry. The second pins the
// ceiling TCP removes: the same oversized rep over cmd/node's UDP path
// never arrives.

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// bigAccount is the -op token for an account whose name expands to 2 MiB —
// far beyond the 65507-byte absolute UDP datagram maximum, and ~1500× the
// 1400-byte default MTU.
const bigAccount = "B*2097152"

func TestBankTransferAcrossProcessesOverResettingTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	bin := buildNode(t)
	faults := []string{
		"-transport", "tcp",
		"-reset", "0.08", "-stall", "0.05", "-stalltime", "40ms",
	}
	srv := startNode(t, bin, append([]string{
		"-name", "branch", "-listen", "127.0.0.1:0", "-host", "bank", "-seed", "7",
	}, faults...)...)

	// The teller's ops: the PR 3 exactly-once workload, plus one account
	// whose 2 MiB name makes every request and reply carrying it a
	// single multi-megabyte frame.
	const transfers = 25
	ops := []string{
		"-op", "open alice", "-op", "open bob",
		"-op", "deposit alice 1000",
	}
	for i := 0; i < transfers; i++ {
		ops = append(ops, "-op", fmt.Sprintf("transfer alice bob %d", 1+i%7))
	}
	ops = append(ops,
		"-op", "open "+bigAccount,
		"-op", "deposit "+bigAccount+" 41",
		"-op", "balance "+bigAccount,
		"-op", "balance alice", "-op", "balance bob",
	)
	args := append([]string{
		"-name", "teller", "-peers", "branch=" + srv.addr, "-call", srv.port("amo_req_port"), "-seed", "11",
		"-timeout", "500ms", "-retries", "60",
	}, faults...)
	cliOut, err := runNode(bin, append(args, ops...)...)
	if err != nil {
		t.Fatalf("client: %v\n%s", err, cliOut)
	}

	var moved int
	for i := 0; i < transfers; i++ {
		moved += 1 + i%7
	}
	for _, want := range []string{
		`op "open alice": ok`,
		`op "deposit alice 1000": ok`,
		`op "open ` + bigAccount + `": ok`,
		`op "deposit ` + bigAccount + ` 41": ok`,
		`op "balance ` + bigAccount + `": balance_is 41`,
		fmt.Sprintf(`op "balance alice": balance_is %d`, 1000-moved),
		fmt.Sprintf(`op "balance bob": balance_is %d`, moved),
	} {
		if !strings.Contains(cliOut, want) {
			t.Errorf("client output missing %q\n%s", want, truncated(cliOut))
		}
	}
	if strings.Count(cliOut, ": ok") != 5+transfers {
		t.Errorf("want %d ok replies\n%s", 5+transfers, truncated(cliOut))
	}

	// Stop the server and read its shutdown audit.
	srvTail := srv.interrupt()
	if err := srv.wait(); err != nil {
		t.Fatalf("server exit: %v\n%s", err, srvTail)
	}

	// Exactly-once across every reset and reconnect: two opens, one
	// deposit, the transfers, and the big account's open + deposit, each
	// applied once. Balances are reads and must not count.
	applies := regexp.MustCompile(`(?m)^applies (\d+)$`).FindStringSubmatch(srvTail)
	if applies == nil {
		t.Fatalf("server printed no applies line:\n%s", srvTail)
	}
	if want := fmt.Sprint(5 + transfers); applies[1] != want {
		t.Fatalf("server applies=%s, want %s (exactly-once violated)\n%s\n%s",
			applies[1], want, truncated(cliOut), srvTail)
	}

	// The run only means something if the stream faults actually fired:
	// the injectors must report hits, and the server's connection table
	// must show the machine dialing, resetting, and reconnecting.
	injected := regexp.MustCompile(`injected sent=(\d+) lost=(\d+) duplicated=(\d+) resets=(\d+) stalls=(\d+)`)
	var resets, stalls int
	for side, out := range map[string]string{"client": cliOut, "server": srvTail} {
		m := injected.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("%s printed no injected-faults line:\n%s", side, truncated(out))
		}
		r, _ := strconv.Atoi(m[4])
		s, _ := strconv.Atoi(m[5])
		resets += r
		stalls += s
	}
	if resets == 0 {
		t.Error("no connection resets were injected on either side: the fault model idled")
	}
	if stalls == 0 {
		t.Error("no write stalls were injected on either side: the fault model idled")
	}
	if !strings.Contains(srvTail, "== tcp connections ==") {
		t.Errorf("server printed no connection table:\n%s", srvTail)
	}
	connRow := regexp.MustCompile(`(?m)^\S+:\d+\s+\S+\s+(\d+)\s+(\d+)\s+(\d+)\s+\d+`)
	if m := connRow.FindStringSubmatch(srvTail); m == nil {
		t.Errorf("no per-peer counter row in server stats:\n%s", srvTail)
	}
	t.Logf("injected resets=%d stalls=%d\nserver tail:\n%s", resets, stalls, srvTail)
}

// TestUDPCannotCarryLargeRep pins the ceiling the stream transport
// removes: over cmd/node's UDP path the very same multi-megabyte rep
// never arrives — its fragments exceed what a datagram can carry, the
// transport refuses them, and the at-most-once caller times out.
func TestUDPCannotCarryLargeRep(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	bin := buildNode(t)
	srv := startNode(t, bin, "-name", "branch", "-listen", "127.0.0.1:0", "-host", "bank", "-seed", "7")

	out, err := runNode(bin,
		"-name", "teller", "-peers", "branch="+srv.addr, "-call", srv.port("amo_req_port"),
		"-timeout", "150ms", "-retries", "3",
		"-op", "open alice", // small op: proves the path itself works
		"-op", "open "+bigAccount, // oversized: must never arrive
	)
	if err == nil {
		t.Fatalf("client carried a %d-byte rep over UDP; the MTU ceiling is supposed to forbid that:\n%s",
			2<<20, truncated(out))
	}
	if !strings.Contains(out, `op "open alice": ok`) {
		t.Errorf("small op should have succeeded before the big one failed:\n%s", truncated(out))
	}
	if !strings.Contains(out, "open "+bigAccount) {
		t.Errorf("failure should name the oversized op:\n%s", truncated(out))
	}
}

// truncated keeps failure dumps readable when output embeds megabyte
// account names.
func truncated(s string) string {
	if len(s) > 4096 {
		return s[:4096] + "... [truncated]"
	}
	return s
}
