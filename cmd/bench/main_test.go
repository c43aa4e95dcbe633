package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/metrics"
)

// The verdict prefixes are the contract with EXPERIMENTS.md and with
// anyone grepping a run for DEVIATES.
func TestPrintResultVerdictPrefixes(t *testing.T) {
	tab := metrics.NewTable("t", "arm", "n")
	tab.AddRow("a", 1)
	res := &exp.Result{
		Tables: []*metrics.Table{tab},
		Claims: []exp.Claim{{Holds: true, Text: "money conserved"}, {Holds: false, Text: "2-shard ring lost 1"}},
		Notes:  []string{"shape: flat"},
	}
	var buf bytes.Buffer
	printResult(&buf, res, true)
	lines := strings.Split(buf.String(), "\n")
	for _, want := range []string{"== t ==", "arm,n", "  HOLDS: money conserved", "  DEVIATES: 2-shard ring lost 1", "  shape: flat"} {
		found := false
		for _, l := range lines {
			found = found || l == want
		}
		if !found {
			t.Errorf("no line %q in:\n%s", want, buf.String())
		}
	}
}
