package main

// The one process harness the cmd/node tests start nodes through: build the
// binary, start a node process and read its banner, then kill -9 it,
// interrupt it for its shutdown report, or reap it for its exit code. A
// one-shot client runs to completion and returns its combined output.

import (
	"bufio"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildNode compiles this package once per test binary invocation.
func buildNode(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "node")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/node")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// freePeers reserves a distinct loopback UDP address for each name by
// binding them all (so no two are equal) and releasing them on return, and
// returns the addresses and the matching -peers value. The window between release and the node process
// re-binding is a race in principle; on loopback in a test it is not worth
// more machinery.
func freePeers(t *testing.T, names ...string) (addrs []string, peers string) {
	t.Helper()
	entries := make([]string, len(names))
	for i, name := range names {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		addrs = append(addrs, c.LocalAddr().String())
		entries[i] = name + "=" + addrs[i]
	}
	return addrs, strings.Join(entries, ",")
}

// runNode runs the binary to completion as a one-shot client process and
// returns its combined output. The error is the client's: expected
// whenever a server crashes under it.
func runNode(bin string, args ...string) (string, error) {
	out, err := exec.Command(bin, args...).CombinedOutput()
	return string(out), err
}

// nodeProc is one node process: its lifecycle and, for a server, what its
// banner said.
type nodeProc struct {
	t         *testing.T
	cmd       *exec.Cmd
	sc        *bufio.Scanner    // stdout, past what has been read
	addr      string            // "listening on <addr>"
	ports     map[string]string // "port <label> <name>"
	recovered bool              // "recovered ..." (catalog recovery)
	recovery  []string          // "recovery <log> ..." report lines

	waitOnce sync.Once
	waitErr  error
}

// spawn starts the binary in the background without reading its output;
// stderr passes through to the test's. The process is killed, if still
// alive, when the test ends.
func spawn(t *testing.T, bin string, args ...string) *nodeProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	p := &nodeProc{t: t, cmd: cmd, sc: sc, ports: make(map[string]string)}
	t.Cleanup(func() { p.kill() })
	return p
}

// startNode spawns a server and reads its banner through "ready".
func startNode(t *testing.T, bin string, args ...string) *nodeProc {
	t.Helper()
	p := spawn(t, bin, args...)
	guard := time.AfterFunc(20*time.Second, func() { p.cmd.Process.Kill() })
	defer guard.Stop()
	for p.sc.Scan() {
		line := p.sc.Text()
		if rest, ok := strings.CutPrefix(line, "listening on "); ok {
			p.addr = rest
		}
		if strings.HasPrefix(line, "recovered ") {
			p.recovered = true
		}
		if strings.HasPrefix(line, "recovery ") {
			p.recovery = append(p.recovery, line)
		}
		if rest, ok := strings.CutPrefix(line, "port "); ok {
			if label, name, ok := strings.Cut(rest, " "); ok {
				p.ports[label] = name
			}
		}
		if line == "ready" {
			if p.addr == "" {
				t.Fatalf("node printed no listening address (args %v)", args)
			}
			return p
		}
	}
	p.kill()
	t.Fatalf("node died before ready (args %v)", args)
	return nil
}

// port returns the name the banner printed for label; a banner without it
// fails the test.
func (p *nodeProc) port(label string) string {
	p.t.Helper()
	name := p.ports[label]
	if name == "" {
		p.t.Fatalf("banner printed no %s port: %v", label, p.ports)
	}
	return name
}

// wait reaps the process exactly once.
func (p *nodeProc) wait() error {
	p.waitOnce.Do(func() { p.waitErr = p.cmd.Wait() })
	return p.waitErr
}

// rest reads stdout to its end, reaps the process, and returns what was
// read.
func (p *nodeProc) rest() string {
	var lines []string
	for p.sc.Scan() {
		lines = append(lines, p.sc.Text())
	}
	_ = p.wait()
	return strings.Join(lines, "\n")
}

// kill is kill -9 plus reaping; killing an already-dead process is fine.
// It returns what the process printed since its banner.
func (p *nodeProc) kill() string {
	_ = p.cmd.Process.Kill()
	return p.rest()
}

// interrupt delivers SIGINT and returns the shutdown report.
func (p *nodeProc) interrupt() string {
	_ = p.cmd.Process.Signal(os.Interrupt)
	guard := time.AfterFunc(20*time.Second, func() { p.cmd.Process.Kill() })
	defer guard.Stop()
	return p.rest()
}

// exitCode reaps the process, killing it if it outlives timeout, and
// returns its exit code.
func (p *nodeProc) exitCode(timeout time.Duration) int {
	guard := time.AfterFunc(timeout, func() { p.cmd.Process.Kill() })
	defer guard.Stop()
	p.rest()
	var ee *exec.ExitError
	switch err := p.wait(); {
	case err == nil:
		return 0
	case errors.As(err, &ee):
		return ee.ExitCode()
	}
	return -1
}
