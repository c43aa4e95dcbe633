package main

import (
	"io"
	"strings"
	"testing"
)

// TestCrashFlagNeeds pins which flags each -crash point needs: the WAL
// windows need -data, the replication windows -group, the handoff windows
// -shard and -data. Every point is accepted with what it needs and refused,
// with the message naming the first missing flag, without it; points that
// no process can reach, and unknown ones, are refused outright.
func TestCrashFlagNeeds(t *testing.T) {
	const (
		base  = "-name n -host bank"
		data  = " -data d"
		group = " -group g -members n"
		shard = " -shard s1"
	)
	type tc struct {
		point, args, want string // want "" means accepted
	}
	var cases []tc
	for _, p := range []string{"before-sync", "after-sync", "mid-checkpoint"} {
		cases = append(cases,
			tc{p, base + data, ""},
			tc{p, base, "node: -crash " + p + " needs -data"})
	}
	for _, p := range []string{"before-ship", "after-ship", "after-quorum"} {
		cases = append(cases,
			tc{p, base + data + group, ""},
			tc{p, base + data, "node: -crash " + p + " needs -group"})
	}
	for _, p := range []string{"before-cut", "after-cut", "before-install", "after-install"} {
		cases = append(cases,
			tc{p, base + shard + data, ""},
			tc{p, base + data, "node: -crash " + p + " needs -shard"},
			tc{p, base + shard, "node: -crash " + p + " needs -data"})
	}
	for _, p := range []string{"mid-truncate", "after-prepare", "nope"} {
		cases = append(cases, tc{p, base + data + shard, `node: bad -crash point "` + p + `"`})
	}
	for _, c := range cases {
		args := append(strings.Fields(c.args), "-crash", c.point+":2")
		o, err := parseFlags(args, io.Discard)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v: refused: %v", args, err)
		case c.want == "" && o.crash == nil:
			t.Errorf("%v: accepted without a crash spec", args)
		case c.want != "" && err == nil:
			t.Errorf("%v: accepted, want %q", args, c.want)
		case c.want != "" && !strings.HasPrefix(err.Error(), c.want):
			t.Errorf("%v: error %q, want %q", args, err, c.want)
		}
	}
}

// TestFlagNeeds pins the flags that mean nothing alone: each is accepted
// beside the flag it needs and refused, with the message naming that flag,
// without it — where it would otherwise be silently ignored.
func TestFlagNeeds(t *testing.T) {
	const (
		ringCli = "-name n -ring r -ns ns/1/1"
		callCli = "-name n -call b/2/2"
		server  = "-name n -host bank -data d"
		member  = server + " -group g -members n"
	)
	type tc struct {
		args, want string // want "" means accepted
	}
	cases := []tc{
		{ringCli, ""},
		{"-name n -ring r", "node: -ring needs -ns"},
		{"-name n -resolve bank/main -ns ns/1/1", ""},
		{"-name n -resolve bank/main", "node: -resolve needs -ns"},
		{member + " -service bank/main -ns ns/1/1", ""},
		{member + " -service bank/main", "node: -service needs -ns"},
		{server + " -service bank/main -ns ns/1/1", "node: -service needs -group"},
		{server + " -members n", "node: -members needs -group"},
	}
	for _, f := range []string{"-ringboot s1=a/1/1,a/1/2", "-ringjoin s4=d/1/1,d/1/2", "-ringleave s4", "-coord txc/2/1"} {
		name, _, _ := strings.Cut(f, " ")
		cases = append(cases,
			tc{ringCli + " " + f, ""},
			tc{callCli + " " + f, "node: " + name + " needs -ring"})
	}
	for _, f := range []string{"-mode async", "-hb 50ms", "-threshold 3"} {
		name, _, _ := strings.Cut(f, " ")
		cases = append(cases,
			tc{member + " " + f, ""},
			tc{server + " " + f, "node: " + name + " needs -group"})
	}
	for _, c := range cases {
		args := strings.Fields(c.args)
		_, err := parseFlags(args, io.Discard)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v: refused: %v", args, err)
		case c.want != "" && err == nil:
			t.Errorf("%v: accepted, want %q", args, c.want)
		case c.want != "" && err.Error() != c.want:
			t.Errorf("%v: error %q, want %q", args, err, c.want)
		}
	}
}
