package ackorder_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/ackorder"
)

func TestAckOrder(t *testing.T) {
	analysistest.Run(t, ackorder.Analyzer, "a")
}
