package a

import "repro/internal/guardian"

// In a test file neither shape is reported: the test deadline bounds the
// wait.
func testLoops(ctx *guardian.Ctx, pr *guardian.Process, p *guardian.Port) {
	guardian.NewReceiver(ctx.Ports[0]).
		When("m", func(pr *guardian.Process, m *guardian.Message) {}).
		Loop(ctx.Proc, nil)
	m, _ := pr.Receive(guardian.Infinite, p)
	_ = m
}
