package callgraph

import (
	"go/token"
	"strings"
	"testing"
)

// hand-built graphs exercise the closure independently of extraction.

func addFunc(g *Graph, key, owner string, events ...Event) *FuncSum {
	sum := &FuncSum{Key: key, Name: key[strings.LastIndex(key, ".")+1:], Pkg: "t", OwnerType: owner, Events: events}
	g.Funcs[key] = sum
	if owner != "" {
		name := key[strings.LastIndex(key, ".")+1:]
		g.Methods[name] = append(g.Methods[name], key)
		ms := g.TypeMethods[owner]
		if ms == nil {
			ms = make(map[string]bool)
			g.TypeMethods[owner] = ms
		}
		ms[name] = true
	}
	return sum
}

func TestReachTransitiveBlock(t *testing.T) {
	g := New()
	addFunc(g, "t.a", "", Event{Kind: KCall, Class: "t.b", Pos: 1})
	addFunc(g, "t.b", "", Event{Kind: KCall, Class: "t.c", Pos: 2})
	addFunc(g, "t.c", "", Event{Kind: KBlock, Detail: "guardian Process.Receive", Pos: 3})

	r := g.ReachOf("t.a")
	if r == nil || len(r.Blocks) != 1 {
		t.Fatalf("want 1 reachable block from t.a, got %+v", r)
	}
	for _, s := range r.Blocks {
		if s.Detail != "guardian Process.Receive" {
			t.Fatalf("wrong block: %+v", s)
		}
		chain := g.Chain("t.a", s)
		if chain != "a → b → c" {
			t.Fatalf("witness chain = %q", chain)
		}
	}
}

func TestReachRecursionTerminates(t *testing.T) {
	g := New()
	addFunc(g, "t.a", "", Event{Kind: KCall, Class: "t.b", Pos: 1}, Event{Kind: KAcquire, Class: "t.T.mu", Pos: 2})
	addFunc(g, "t.b", "", Event{Kind: KCall, Class: "t.a", Pos: 3}, Event{Kind: KBlock, Detail: "select with no default", Pos: 4})

	ra, rb := g.ReachOf("t.a"), g.ReachOf("t.b")
	if len(ra.Blocks) != 1 || len(rb.Blocks) != 1 {
		t.Fatalf("mutual recursion: blocks a=%d b=%d", len(ra.Blocks), len(rb.Blocks))
	}
	if _, ok := rb.Acquires["t.T.mu"]; !ok {
		t.Fatalf("b should reach a's acquire through recursion: %+v", rb.Acquires)
	}
}

func TestResolveCHAScreensByMethodSet(t *testing.T) {
	g := New()
	// Real implements both Append and Sync; Decoy has only Sync.
	addFunc(g, "t.(Real).Sync", "t.Real", Event{Kind: KBlock, Detail: "forced durable write", Pos: 1})
	addFunc(g, "t.(Real).Append", "t.Real")
	addFunc(g, "t.(Decoy).Sync", "t.Decoy")

	targets := g.Resolve(Event{Kind: KICall, Class: "Sync", IfaceMethods: []string{"Append", "Sync"}}, "t.caller")
	if len(targets) != 1 || targets[0] != "t.(Real).Sync" {
		t.Fatalf("CHA screening: got %v, want [t.(Real).Sync]", targets)
	}
	// Without screening, both qualify.
	targets = g.Resolve(Event{Kind: KICall, Class: "Sync", IfaceMethods: []string{"Sync"}}, "t.caller")
	if len(targets) != 2 {
		t.Fatalf("unscreened: got %v", targets)
	}
}

func TestSiteCapBounds(t *testing.T) {
	g := New()
	events := make([]Event, 0, maxSites*2)
	for i := 0; i < maxSites*2; i++ {
		events = append(events, Event{Kind: KBlock, Detail: "chansend", Pos: token.Pos(i + 1)})
	}
	addFunc(g, "t.big", "", events...)
	if r := g.ReachOf("t.big"); len(r.Blocks) > maxSites {
		t.Fatalf("site cap exceeded: %d", len(r.Blocks))
	}
}
