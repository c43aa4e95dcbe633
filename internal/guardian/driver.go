package guardian

import "strconv"

// This file provides driver guardians: anonymous guardians whose processes
// are driven by the caller's own goroutine. They stand in for the human
// users at a node (the paper's reservation clerks and administrators talk
// to the system through exactly such an interface guardian) and are the
// natural entry point for tests, examples and command-line tools.

var driverDef = &GuardianDef{
	TypeName: "_driver",
	Init:     func(*Ctx) {},
	// No Recover: drivers are forgotten by a crash, like the paper's
	// transaction processes.
}

// NewDriver creates a driver guardian at the node and returns it together
// with an externally-driven process handle. The caller's goroutine plays
// the process: it may Send, Receive and create ports through the handle.
func (n *Node) NewDriver(name string) (*Guardian, *Process, error) {
	g, err := n.instantiate(driverDef, nil, nil, false)
	if err != nil {
		return nil, nil, err
	}
	return g, g.ExternalProcess(name), nil
}

// ExternalProcess returns a process handle executed by the caller's own
// goroutine rather than one spawned by the guardian. The handle obeys all
// normal process rules: it dies with the guardian, may only receive on the
// guardian's own ports, and blocks in one goroutine at a time (another
// goroutine takes a handle of its own).
func (g *Guardian) ExternalProcess(name string) *Process {
	g.mu.Lock()
	g.nextProcID++
	id := g.nextProcID
	g.mu.Unlock()
	return &Process{g: g, name: name + "/ext" + strconv.FormatUint(id, 10)}
}
