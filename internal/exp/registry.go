package exp

import "fmt"

// Experiment ties an id to its runner.
type Experiment struct {
	// ID is the short name used by cmd/bench -experiment.
	ID string
	// Paper names the figure/section reproduced.
	Paper string
	// Description summarizes the claim under test.
	Description string
	// Run executes the experiment at the given scale.
	Run func(scale Scale) (*Result, error)
}

// registry is DESIGN.md §3's index, in order.
var registry = []Experiment{
	{"fig1", "Figure 1",
		"flight guardian organizations: sequential vs serializer vs monitor under date skew",
		RunE1Fig1},
	{"fig2", "Figure 2 / Figure 4",
		"central vs regional deployment; reply bypass vs relay ablation",
		RunE2Fig2},
	{"fig3", "Figure 3 / §2.1",
		"guardian creation: local, remote via primordial guardian, owner policy denial",
		RunE3Fig3},
	{"primitives", "§3",
		"no-wait vs synchronization vs remote-transaction send across exchange patterns",
		RunE4Primitives},
	{"delivery", "§3.4",
		"best-effort delivery, reordering, bounded port buffers, failure messages",
		RunE5Delivery},
	{"transactions", "Figure 5 / §3.5",
		"transaction robustness under regional and UI node crashes; idempotent retry audit",
		RunE6Transactions},
	{"recovery", "§2.2",
		"permanence of effect: log replay, recovery time, checkpoint ablation",
		RunE7Recovery},
	{"xrep", "§3.3",
		"abstract values: representation diversity, encode/decode cost, 24-bit standard",
		RunE8ExternalRep},
	{"tpc", "§3/§4 (extension)",
		"two-phase commit built on the no-wait send: cost scaling and atomicity under faults",
		RunE9Tpc},
	{"amo", "§3.5 (extension)",
		"at-most-once layer vs bare calls: exactly-once transfers under loss and duplication",
		RunE10AMO},
	{"dst", "§2.2/§2.3/§3.5 (extension)",
		"deterministic simulation: seeded fault sweep with invariant checkers and an injected-bug control",
		RunE11DST},
	{"replica", "§2.2 (extension)",
		"replicated guardians: quorum-ack cost vs single-node group commit, failover time under permanent primary death",
		RunE14Replica},
	{"ring", "§2.1/§3.5 (extension)",
		"consistent-hash scale-out: aggregate throughput vs shard count, account-skew ablation, exact conservation audit",
		RunE16Ring},
	{"transport", "§3.4 (extension)",
		"stream transport: guardian round trips over netsim/UDP/TCP, and the datagram size ceiling TCP removes",
		RunE17Transport},
}

// All returns every experiment in DESIGN.md's index, in order.
func All() []Experiment { return registry }

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}
