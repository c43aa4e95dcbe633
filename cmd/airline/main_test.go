package main

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestNarratedStory builds the command and runs it as a user would, then
// checks the outcome of every act it narrates, the trace footer and the
// exit status.
func TestNarratedStory(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "airline")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-trace", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("airline -trace 3: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")

	stats := slices.Index(lines, "--- runtime statistics ---")
	if stats < 0 {
		t.Fatalf("no runtime statistics:\n%s", out)
	}
	var outcomes []string
	for _, line := range lines[:stats] {
		if _, outcome, ok := strings.Cut(line, " -> "); ok {
			outcomes = append(outcomes, outcome)
		}
	}
	want := []string{
		// A clerk transaction: reserve, reserve again, a cross-region
		// reserve, a deferred cancel, its undo, done.
		"ok", "pre_reserved", "ok", "deferred", "cancel", "trans_done",
		// A regional crash: the reserve times out, the retry succeeds.
		"can't communicate", "ok", "trans_done",
		// A UI crash: the redo in a fresh transaction finds the seat held.
		"ok", "pre_reserved", "trans_done",
	}
	if !slices.Equal(outcomes, want) {
		t.Fatalf("outcomes = %q, want %q\n%s", outcomes, want, out)
	}

	footer := regexp.MustCompile(`^--- last 3 runtime events \(of \d+ traced\) ---$`)
	i := slices.IndexFunc(lines, footer.MatchString)
	if i < stats || len(lines)-i-1 != 3 {
		t.Fatalf("want a trace footer followed by 3 events, got:\n%s", out)
	}
}
