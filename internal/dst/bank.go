package dst

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/amo"
	"repro/internal/bank"
	"repro/internal/guardian"
	"repro/internal/sendprim"
	"repro/internal/xrep"
)

// This file is the one bank client and the one bank auditor. The static
// topology (topology.go) and the ring (ring_workload.go) differ only in
// how a call reaches a branch — a bankLink — and in what else they audit
// on top; the operation mix, the issued/acked bookkeeping, and the
// conservation / balance / recovery checks live here once.
//
// The invariants are chosen to be valid under ANY schedule and goroutine
// interleaving, exploiting the branch's log-then-reply discipline (an
// acked op is durable) and the amo layer's at-most-once promise (an
// issued op applies at most once):
//
//	conservation:  Σ balances ∈ [ackedDeposits−issuedWithdrawals,
//	                             issuedDeposits−ackedWithdrawals]
//	balance:       exact expected balances, for ledgers whose every call
//	               was acked
//	recovery:      served state == pure replay of the durable log
//	               (bank.ReplayAccountsFrom, checkpoint-aware)

// seedFunds is the initial deposit each client makes into its first
// account before issuing random operations.
const seedFunds = 1000

// clientLedger is one session's client-side model of its two accounts on
// one branch. Touched only by its own goroutine during the run, read by
// check after.
type clientLedger struct {
	acctA, acctB string
	expA, expB   int64
	// funded is true once the initial deposit was acked ok.
	funded bool
	// certain is true while every call the client made was acked — the
	// precondition for comparing exact balances. Any timeout or failure
	// leaves an op in may-or-may-not-have-applied limbo and clears it.
	certain bool
}

// bankTally is the issued/acked bookkeeping of one conservation domain:
// one shard of a static topology (money never moves between shards) or
// the whole ring (where migration and 2PC do move it).
type bankTally struct {
	issuedDep, ackedDep int64 // deposit amounts, funding included
	issuedWd, ackedWd   int64 // withdrawal amounts
	// issued and ackedOK count the calls issued and the calls acked with
	// outcome ok — the bounds on a branch's execution count.
	issued, ackedOK int64
}

// bankBooks is everything the client sessions record for the auditor:
// the report's operation counters plus one tally per conservation domain.
type bankBooks struct {
	mu        sync.Mutex
	opsIssued int64
	opsAcked  int64
	opsFailed int64
	tallies   []bankTally
	routing   []string // one line per routing outcome that reached a client
}

// close copies the operation counters and routing violations into the
// report and returns the tallies as they stood when the clients finished.
func (b *bankBooks) close(rep *Report) []bankTally {
	b.mu.Lock()
	defer b.mu.Unlock()
	rep.OpsIssued, rep.OpsAcked, rep.OpsFailed = b.opsIssued, b.opsAcked, b.opsFailed
	for _, r := range b.routing {
		rep.addViolation("routing", "%s", r)
	}
	return append([]bankTally(nil), b.tallies...)
}

// bankLink is how a session reaches the branch holding an account: an
// at-most-once caller on one port, or a bank.Router over the ring. Both
// functions return the outcome command of a definite reply, or an error
// when the call was abandoned with its outcome unknown.
type bankLink struct {
	call     func(acct, cmd string, args ...any) (string, error)
	transfer func(from, to string, amt int64) (string, error)
}

// outcome flattens an at-most-once reply to its outcome command.
func outcome(rep *amo.Reply, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return rep.Command, nil
}

// callerLink reaches one branch's at-most-once port directly; the
// intra-branch transfer is one more command on it.
func callerLink(c *amo.Caller, port xrep.PortName) bankLink {
	call := func(_, cmd string, args ...any) (string, error) {
		return outcome(c.Call(port, cmd, args...))
	}
	return bankLink{call: call, transfer: func(from, to string, amt int64) (string, error) {
		return call(from, "transfer", from, to, amt)
	}}
}

// routerLink resolves every account through the ring; split transfer
// pairs ride 2PC inside Router.Transfer.
func routerLink(rt *bank.Router) bankLink {
	return bankLink{
		call: func(acct, cmd string, args ...any) (string, error) {
			return outcome(rt.Call(acct, cmd, args...))
		},
		transfer: rt.Transfer,
	}
}

// do issues one call of cmd on acct and books it against tally t: issued
// (with the deposit or withdrawal amount it would move) before the send,
// acked or failed after. It returns the outcome, "" when there was none —
// which also costs the ledger its certainty. Routing outcomes are the amo
// Caller's and the Router's to consume: one that reaches the client
// answered nothing, so the call is booked as failed and the run as a
// routing violation.
func (b *bankBooks) do(led *clientLedger, t int, dep, wd int64, cmd, acct string, call func() (string, error)) string {
	b.mu.Lock()
	b.opsIssued++
	b.tallies[t].issued++
	b.tallies[t].issuedDep += dep
	b.tallies[t].issuedWd += wd
	b.mu.Unlock()

	out, err := call()

	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil && (out == amo.OutcomeMoved || out == amo.OutcomeSplit) {
		err = fmt.Errorf("%s %s: routing outcome %s reached the client", cmd, acct, out)
		b.routing = append(b.routing, err.Error())
	}
	if err != nil {
		b.opsFailed++
		led.certain = false
		return ""
	}
	b.opsAcked++
	if out == bank.OutcomeOK {
		b.tallies[t].ackedOK++
		b.tallies[t].ackedDep += dep
		b.tallies[t].ackedWd += wd
	}
	return out
}

// fund opens the ledger's two accounts and makes the seed deposit.
// Everything — account setup included — goes through the at-most-once
// path: a retry that crosses a crash, a failover or an epoch flip must
// not double-apply. A ledger that cannot be funded stays unfunded and
// uncertain; its domain's conservation bounds are sound either way.
func (b *bankBooks) fund(led *clientLedger, t int, link bankLink) {
	led.certain = true
	for _, acct := range []string{led.acctA, led.acctB} {
		out := b.do(led, t, 0, 0, "open", acct, func() (string, error) { return link.call(acct, "open", acct) })
		if out != bank.OutcomeOK && out != bank.OutcomeExists {
			led.certain = false
			return
		}
	}
	out := b.do(led, t, seedFunds, 0, "deposit", led.acctA, func() (string, error) {
		return link.call(led.acctA, "deposit", led.acctA, int64(seedFunds))
	})
	if out != bank.OutcomeOK {
		led.certain = false
		return
	}
	led.funded = true
	led.expA = seedFunds
}

// op runs one operation of the seeded mix against the ledger: 40 %
// deposit, 30 % withdraw, 30 % transfer to the ledger's other account.
// Every draw happens whether or not the ledger is usable, so one
// unreachable branch does not shift the stream feeding the rest.
func (b *bankBooks) op(led *clientLedger, t int, link bankLink, crng *rand.Rand) {
	acct, exp, other, oexp := led.acctA, &led.expA, led.acctB, &led.expB
	if crng.Intn(2) == 1 {
		acct, exp, other, oexp = other, oexp, acct, exp
	}
	pick := crng.Intn(10)
	amt := 1 + crng.Int63n(9)
	if !led.funded {
		return
	}
	switch {
	case pick < 4:
		if b.do(led, t, amt, 0, "deposit", acct, func() (string, error) { return link.call(acct, "deposit", acct, amt) }) == bank.OutcomeOK {
			*exp += amt
		}
	case pick < 7:
		if b.do(led, t, 0, amt, "withdraw", acct, func() (string, error) { return link.call(acct, "withdraw", acct, amt) }) == bank.OutcomeOK {
			*exp -= amt
		}
	default:
		if b.do(led, t, 0, 0, "transfer", acct, func() (string, error) { return link.transfer(acct, other, amt) }) == bank.OutcomeOK {
			*exp -= amt
			*oexp += amt
		}
	}
}

// pingBranch is the bank's synchronizing call (see serving): an audit
// request on a branch's native port.
func pingBranch(pr *guardian.Process, native xrep.PortName) error {
	_, err := sendprim.Call(pr, native, bank.ClientReplyType, auditCallOptions(), "audit")
	return err
}

// auditAccounts checks one conservation domain's served balances against
// its books: the total within the acked/issued bounds, and exact balances
// for every ledger whose calls were all acked. scope prefixes the
// evidence ("shard 3", "cluster").
func auditAccounts(rep *Report, scope string, accts map[string]int64, t bankTally, ledgers []*clientLedger) {
	var total int64
	for _, bal := range accts {
		total += bal
	}
	lo, hi := t.ackedDep-t.issuedWd, t.issuedDep-t.ackedWd
	if total < lo || total > hi {
		rep.addViolation("conservation",
			"%s: total balance %d outside [%d,%d] (acked/issued deposit and withdrawal bounds)",
			scope, total, lo, hi)
	}
	for _, led := range ledgers {
		if !led.funded || !led.certain {
			continue
		}
		if accts[led.acctA] != led.expA || accts[led.acctB] != led.expB {
			rep.addViolation("balance",
				"%s: ledger with all calls acked: got %s=%d %s=%d, want %d/%d",
				scope, led.acctA, accts[led.acctA], led.acctB, accts[led.acctB],
				led.expA, led.expB)
		}
	}
}

// auditReplay is recovery-equals-replay: the accounts a branch serves
// are exactly what a restart (or a takeover, or a migration's next
// reader) would reconstruct from its durable log.
func auditReplay(rep *Report, scope string, g *guardian.Guardian, accts map[string]int64) {
	replay, err := bank.ReplayAccountsFrom(g.Log())
	if err != nil {
		rep.addViolation("recovery", "%s: log replay: %v", scope, err)
		return
	}
	if !equalAccounts(accts, replay) {
		rep.addViolation("recovery", "%s: accounts %v != log replay %v", scope, accts, replay)
	}
}

func equalAccounts(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
