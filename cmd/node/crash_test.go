package main

// The acceptance test for the durable-storage tentpole: a bank branch
// running as its own OS process with a -data WAL is killed — by injected
// crashes parked at exact durability windows (before the batch fsync,
// after it, between checkpoint install and compaction) and by plain
// external SIGKILL — then restarted over the same directory, and must
// come back with money conserved and every client-confirmed transfer
// applied exactly once.
//
// Every transfer moves a distinct power of three, so the destination
// balance is a base-3 tally: digit i counts how many times transfer i
// executed. Any digit of 2 is a double-apply; a 0 digit on a confirmed
// transfer is a lost acknowledged effect. Unconfirmed transfers (the
// client died waiting) are legitimately 0 or 1 — at-most-once, not
// exactly-once, is the contract for unacknowledged work.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const seedDeposit = 2_000_000_000

func pow3(i int) int64 {
	n := int64(1)
	for ; i > 0; i-- {
		n *= 3
	}
	return n
}

// balanceOf extracts one "balance_is" reply from client output.
func balanceOf(t *testing.T, out, acct string) int64 {
	t.Helper()
	marker := fmt.Sprintf("op \"balance %s\": balance_is ", acct)
	_, rest, ok := strings.Cut(out, marker)
	if !ok {
		t.Fatalf("no balance reply for %s in:\n%s", acct, out)
	}
	rest, _, _ = strings.Cut(rest, "\n")
	n, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
	if err != nil {
		t.Fatalf("bad balance for %s: %v", acct, err)
	}
	return n
}

// checkInvariants asserts conservation of money and the base-3 tally:
// no transfer applied twice, every confirmed transfer applied once.
func checkInvariants(t *testing.T, round int, alice, bob int64, confirmed map[int]bool, issued int) {
	t.Helper()
	if alice+bob != seedDeposit {
		t.Fatalf("round %d: alice=%d + bob=%d != %d: money not conserved", round, alice, bob, seedDeposit)
	}
	rem := bob
	for i := 0; i < issued; i++ {
		d := rem % 3
		rem /= 3
		if d > 1 {
			t.Fatalf("round %d: transfer %d applied %d times (double apply)", round, i, d)
		}
		if confirmed[i] && d != 1 {
			t.Fatalf("round %d: confirmed transfer %d applied %d times (lost acknowledged effect)", round, i, d)
		}
	}
	if rem != 0 {
		t.Fatalf("round %d: bob=%d holds money no issued transfer moved", round, bob)
	}
}

func TestBankSurvivesCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	bin := buildNode(t)
	data := t.TempDir()
	confirmed := make(map[int]bool)

	// startBranch launches one bank server incarnation over data.
	startBranch := func(extra ...string) *nodeProc {
		t.Helper()
		return startNode(t, bin, append([]string{"-name", "branch", "-listen", "127.0.0.1:0",
			"-host", "bank", "-data", data, "-cpevery", "2"}, extra...)...)
	}
	// teller drives ops through a fresh client process. The error is the
	// client's: expected whenever the server crashes mid-batch.
	teller := func(srv *nodeProc, name, timeout string, retries int, ops []string) (string, error) {
		args := []string{"-name", name, "-peers", "branch=" + srv.addr, "-call", srv.port("amo_req_port"),
			"-timeout", timeout, "-retries", strconv.Itoa(retries)}
		for _, op := range ops {
			args = append(args, "-op", op)
		}
		return runNode(bin, args...)
	}

	// Setup incarnation: create the accounts and fund alice, then kill -9.
	srv := startBranch()
	if srv.recovered {
		t.Fatal("fresh data dir claimed catalog recovery")
	}
	amoPort := srv.port("amo_req_port")
	out, err := teller(srv, "setup", "500ms", 20, []string{
		"open alice", "open bob", fmt.Sprintf("deposit alice %d", seedDeposit),
	})
	if err != nil || strings.Count(out, ": ok") != 3 {
		t.Fatalf("setup: %v\n%s", err, out)
	}
	srv.kill()

	// verify brings up a clean incarnation, audits the invariants, and
	// returns its recovery-report lines.
	issued := 0
	verify := func(round int) []string {
		t.Helper()
		v := startBranch()
		defer v.kill()
		if !v.recovered {
			t.Fatalf("round %d: verify server did not recover the branch from the catalog", round)
		}
		if got := v.port("amo_req_port"); got != amoPort {
			t.Fatalf("round %d: amo port drifted across restart: %s vs %s", round, got, amoPort)
		}
		out, err := teller(v, fmt.Sprintf("verify%d", round), "500ms", 20,
			[]string{"balance alice", "balance bob"})
		if err != nil {
			t.Fatalf("round %d: verify client: %v\n%s", round, err, out)
		}
		checkInvariants(t, round, balanceOf(t, out, "alice"), balanceOf(t, out, "bob"), confirmed, issued)
		return v.recovery
	}

	// The matrix: one round per crash window. Each round's server is told
	// to exit — as abruptly as SIGKILL — at an exact WAL crash point while
	// a batch of transfers is in flight; the empty spec is the control
	// round, killed externally after its batch completes.
	rounds := []string{"before-sync:4", "mid-checkpoint:1", "after-sync:3", ""}
	for r, crash := range rounds {
		var extra []string
		if crash != "" {
			extra = append(extra, "-crash", crash)
		}
		srv := startBranch(extra...)
		if !srv.recovered {
			t.Fatalf("round %d: server did not recover the branch from the catalog", r)
		}
		if got := srv.port("amo_req_port"); got != amoPort {
			t.Fatalf("round %d: amo port drifted across restart: %s vs %s", r, got, amoPort)
		}
		var ops []string
		first := issued
		for i := 0; i < 4; i++ {
			ops = append(ops, fmt.Sprintf("transfer alice bob %d", pow3(issued)))
			issued++
		}
		// The client dies with the server mid-batch in the crash rounds;
		// only the replies it actually received count as confirmed.
		out, _ := teller(srv, fmt.Sprintf("teller%d", r), "150ms", 4, ops)
		for i := first; i < issued; i++ {
			if strings.Contains(out, fmt.Sprintf("op \"transfer alice bob %d\": ok", pow3(i))) {
				confirmed[i] = true
			}
		}
		srv.kill()
		recovery := verify(r)
		if crash == "mid-checkpoint:1" {
			// Dying between checkpoint install and compaction leaves
			// records at or below the new watermark on disk; recovery must
			// skip them — and say so — rather than replay them under the
			// checkpoint.
			found := false
			for _, line := range recovery {
				if strings.Contains(line, "skipped=") && !strings.Contains(line, "skipped=0") {
					found = true
				}
			}
			if !found {
				t.Errorf("round %d: no skipped-records recovery report after mid-checkpoint crash:\n%s",
					r, strings.Join(recovery, "\n"))
			}
		}
	}

	// Torn tail: scribble a partial frame onto the branch log's active
	// segment — the residue a crash mid-write leaves. Recovery must
	// truncate and REPORT it, never silently replay it, and the surviving
	// state must be untouched.
	segs, err := filepath.Glob(filepath.Join(data, "branch", "bank_branch-2", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no branch segments to tear: %v %v", segs, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn!")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recovery := verify(len(rounds))
	torn := false
	for _, line := range recovery {
		if strings.Contains(line, "bank_branch-2") && strings.Contains(line, "torn_tail=true") {
			torn = true
		}
	}
	if !torn {
		t.Errorf("no torn-tail recovery report after tearing the segment:\n%s", strings.Join(recovery, "\n"))
	}
	t.Logf("confirmed %d/%d transfers across %d crash rounds", len(confirmed), issued, len(rounds))
}
