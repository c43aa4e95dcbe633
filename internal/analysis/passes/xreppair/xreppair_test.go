package xreppair_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/xreppair"
)

func TestXreppair(t *testing.T) {
	analysistest.Run(t, xreppair.Analyzer, "a")
}

// TestXreppairWholeProgram exercises the whole-program directions: every
// encoder needs a registered decode somewhere, every registration an
// encoder.
func TestXreppairWholeProgram(t *testing.T) {
	analysistest.RunWithFinish(t, xreppair.Analyzer, xreppair.Finish, "b", "c")
}
