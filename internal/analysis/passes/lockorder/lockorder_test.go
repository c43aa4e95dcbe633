package lockorder_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/lockorder"
)

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "a", "b")
}
