// Package a is the golden input for the confinement pass.
package a

import "repro/internal/guardian"

// cross spawns a process on g1 that touches g2's port: storage crossing
// the guardian wall without a message in sight.
func cross(g1, g2 *guardian.Guardian) {
	stolen := g2.MustNewPort(guardian.NewPortType("x").Msg("m"), 1)
	g1.Spawn("thief", func(pr *guardian.Process) { // want `captures stolen .* owned by a different guardian`
		_ = stolen.Len()
	})

	// Same-guardian capture, traced through a tuple assignment.
	own, err := g1.NewPort(guardian.NewPortType("y").Msg("m"), 1)
	if err != nil {
		return
	}
	g1.Spawn("worker", func(pr *guardian.Process) {
		_ = own.Len()
	})
}

// viaCtx roots the spawn receiver through a selector on the context.
func viaCtx(ctx *guardian.Ctx, alien *guardian.Process) {
	ctx.G.Spawn("helper", func(pr *guardian.Process) { // want `captures alien`
		alien.Pause(0)
	})
	mine := ctx.Proc
	ctx.G.Spawn("own", func(pr *guardian.Process) {
		mine.Pause(0)
	})
}

// peer looks up another guardian at n: its result traces to no variable.
func peer(n *guardian.Node, id uint64) *guardian.Guardian {
	g, _ := n.GuardianByID(id)
	return g
}

// untraced captures guardians that calls returned — a helper's result and
// a node lookup: each is its own root, so neither is the spawner's.
func untraced(g *guardian.Guardian, id uint64) {
	fg := peer(g.Node(), id)
	g.Spawn("helper-result", func(pr *guardian.Process) { // want `captures fg`
		_ = fg.State()
	})
	other, ok := g.Node().GuardianByID(id)
	if !ok {
		return
	}
	g.Spawn("by-id", func(pr *guardian.Process) { // want `captures other`
		_ = other.State()
	})
}

// ctxLiteral builds a context for its own guardian and hands it to the
// process it spawns there, as the runtime does for Init: a composite
// literal has no traced root, and nothing is reported.
func ctxLiteral(g *guardian.Guardian) {
	ctx := &guardian.Ctx{G: g}
	g.Spawn("main", func(p *guardian.Process) {
		ctx.Proc = p
	})
}

// leakyDef captures a live guardian in the definition body: the
// instantiated guardian would reach into whoever built the definition.
func leakyDef(outer *guardian.Guardian) *guardian.GuardianDef {
	return &guardian.GuardianDef{
		TypeName: "leaky",
		Init: func(ctx *guardian.Ctx) { // want `Init closure captures outer`
			_ = outer.Alive()
		},
	}
}

// cleanDef touches only the Ctx handed to each instance.
func cleanDef() *guardian.GuardianDef {
	return &guardian.GuardianDef{
		TypeName: "clean",
		Init: func(ctx *guardian.Ctx) {
			_ = ctx.G.Alive()
		},
		Recover: func(ctx *guardian.Ctx) {
			_ = ctx.Proc
		},
	}
}

// inspector shares deliberately and says why.
func inspector(g1, g2 *guardian.Guardian) {
	p := g2.MustNewPort(guardian.NewPortType("z").Msg("m"), 1)
	//lint:allow confinement golden: same-node inspector reads queue depth only
	g1.Spawn("inspect", func(pr *guardian.Process) {
		_ = p.Len()
	})
}
