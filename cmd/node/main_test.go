package main

// The acceptance test for the real-transport tentpole: two separate OS
// processes — a branch server and a teller client — exchange actual UDP
// datagrams on loopback, both wrapped in a 20% loss + 20% duplication
// fault model, and every transfer the client's replies confirm is applied
// exactly once by the branch. The audit reads the server's shutdown
// "applies" line: it must equal the number of mutating operations the
// client issued, no matter how many datagrams the wrappers ate or cloned.

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

func TestBankTransferAcrossProcessesOverLossyUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	bin := buildNode(t)
	faults := []string{"-loss", "0.2", "-dup", "0.2"}

	srv := startNode(t, bin, append([]string{
		"-name", "branch", "-listen", "127.0.0.1:0", "-host", "bank", "-seed", "7",
	}, faults...)...)
	amoPort := srv.port("amo_req_port")

	// The client is its own OS process with its own fault wrapper, so both
	// directions of every call cross a lossy, duplicating wire.
	const transfers = 25
	ops := []string{
		"-op", "open alice", "-op", "open bob",
		"-op", "deposit alice 1000",
	}
	for i := 0; i < transfers; i++ {
		ops = append(ops, "-op", fmt.Sprintf("transfer alice bob %d", 1+i%7))
	}
	ops = append(ops, "-op", "balance alice", "-op", "balance bob")
	args := append([]string{
		"-name", "teller", "-peers", "branch=" + srv.addr, "-call", amoPort, "-seed", "11",
		"-timeout", "250ms", "-retries", "60",
	}, faults...)
	cliOut, err := runNode(bin, append(args, ops...)...)
	if err != nil {
		t.Fatalf("client: %v\n%s", err, cliOut)
	}

	// Every reply the client accepted must be the ok outcome, and the
	// final balances must reflect each transfer exactly once.
	var moved int
	for i := 0; i < transfers; i++ {
		moved += 1 + i%7
	}
	for _, want := range []string{
		`op "open alice": ok`,
		`op "deposit alice 1000": ok`,
		fmt.Sprintf(`op "balance alice": balance_is %d`, 1000-moved),
		fmt.Sprintf(`op "balance bob": balance_is %d`, moved),
	} {
		if !strings.Contains(cliOut, want) {
			t.Errorf("client output missing %q\n%s", want, cliOut)
		}
	}
	if strings.Count(cliOut, ": ok") != 3+transfers {
		t.Errorf("want %d ok replies\n%s", 3+transfers, cliOut)
	}

	// Stop the server and read its shutdown audit.
	srvTail := srv.interrupt()
	if err := srv.wait(); err != nil {
		t.Fatalf("server exit: %v\n%s", err, srvTail)
	}

	applies := regexp.MustCompile(`(?m)^applies (\d+)$`).FindStringSubmatch(srvTail)
	if applies == nil {
		t.Fatalf("server printed no applies line:\n%s", srvTail)
	}
	// open+open+deposit+transfers, each exactly once. More means a
	// duplicate got through the at-most-once layer; fewer means a
	// confirmed op never executed.
	if want := fmt.Sprint(3 + transfers); applies[1] != want {
		t.Fatalf("server applies=%s, want %s (exactly-once violated)\n%s\n%s",
			applies[1], want, cliOut, srvTail)
	}

	// The run is only meaningful if the fault injectors actually fired on
	// both sides.
	injected := regexp.MustCompile(`injected sent=(\d+) lost=(\d+) duplicated=(\d+)`)
	for side, out := range map[string]string{"client": cliOut, "server": srvTail} {
		m := injected.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("%s printed no injected-faults line:\n%s", side, out)
		}
		if m[2] == "0" && m[3] == "0" {
			t.Errorf("%s injected no faults (sent=%s): loss/dup idle", side, m[1])
		}
	}
	t.Logf("client:\n%s\nserver tail:\n%s", cliOut, srvTail)
}
