package analysistest_test

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/lockorder"
)

// TestHarnessFailsOnAllowHygiene runs two golden packages with no wants
// in a child process, each of which must fail its golden test the way it
// fails guardianlint: stale holds a directive that suppresses nothing,
// reasonless a reason-less directive that suppresses only a
// whole-program (Finish) finding.
func TestHarnessFailsOnAllowHygiene(t *testing.T) {
	if pkg := os.Getenv("ANALYSISTEST_GOLDEN"); pkg != "" {
		analysistest.Run(t, lockorder.Analyzer, pkg)
		return
	}
	for pkg, want := range map[string]string{
		"stale":      "//lint:allow lockorder suppresses nothing",
		"reasonless": "//lint:allow lockorder needs a reason",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestHarnessFailsOnAllowHygiene$")
		cmd.Env = append(os.Environ(), "ANALYSISTEST_GOLDEN="+pkg)
		out, err := cmd.CombinedOutput()
		if err == nil || !strings.Contains(string(out), want) {
			t.Errorf("golden %s: want a failure reporting %q, got err=%v:\n%s", pkg, want, err, out)
		}
	}
}
