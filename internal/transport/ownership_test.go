package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/vtime"
)

// TestBufferOwnership pins the two-sided buffer contract on every
// transport: Send has copied or consumed the payload by the time it
// returns, so the sender may overwrite its buffer at once; and a payload is
// lent to its handler until the handler returns, so a handler that copies
// sees every delivery (a duplicate's included) intact, and a decorator that
// reads the payload after its inner handler has returned — guardianbench's
// tracing transport does — still reads the bytes that were delivered.
func TestBufferOwnership(t *testing.T) {
	sim := func(cfg netsim.Config) *Sim { return NewSim(netsim.New(vtime.NewReal(), cfg)) }
	cases := []struct {
		name   string
		copies int // deliveries per send
		build  func(t *testing.T) (send, recv Transport)
	}{
		{"sim", 1, func(t *testing.T) (Transport, Transport) {
			s := sim(netsim.Config{})
			return s, s
		}},
		{"sim-dup", 2, func(t *testing.T) (Transport, Transport) {
			s := sim(netsim.Config{Seed: 1, DupRate: 1})
			return s, s
		}},
		{"udp", 1, func(t *testing.T) (Transport, Transport) {
			u, err := NewUDP(UDPConfig{Peers: map[Addr]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0"}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = u.Close() })
			return u, u
		}},
		{"tcp", 1, func(t *testing.T) (Transport, Transport) {
			return tcpPair(t, nil, []Addr{"a"}, []Addr{"b"})
		}},
		{"tcp-local", 1, func(t *testing.T) (Transport, Transport) {
			a, _ := tcpPair(t, nil, nil, nil)
			return a, a
		}},
		{"wrapper-dup", 2, func(t *testing.T) (Transport, Transport) {
			w := Wrap(sim(netsim.Config{}), WrapperConfig{Seed: 1, DupRate: 1})
			return w, w
		}},
		{"wrapper-dup-delayed", 2, func(t *testing.T) (Transport, Transport) {
			w := Wrap(sim(netsim.Config{}), WrapperConfig{Seed: 1, DupRate: 1, Delay: time.Millisecond, Jitter: time.Millisecond})
			return w, w
		}},
	}
	const sends, size = 40, 300
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			send, recv := c.build(t)
			var mu sync.Mutex
			var kept [][]byte
			var changed []string
			arrived := make(chan struct{}, sends*c.copies)
			if err := send.Attach("a", func(Addr, []byte) {}); err != nil {
				t.Fatal(err)
			}
			inner := func(_ Addr, p []byte) {
				mu.Lock()
				kept = append(kept, bytes.Clone(p)) // what outlives the handler is copied
				mu.Unlock()
			}
			decorated := func(from Addr, p []byte) {
				before := bytes.Clone(p)
				inner(from, p)
				runtime.Gosched() // give a transport that reuses p too early the chance
				if !bytes.Equal(p, before) {
					mu.Lock()
					changed = append(changed, fmt.Sprintf("%x… became %x…", before[:4], p[:min(4, len(p))]))
					mu.Unlock()
				}
				arrived <- struct{}{}
			}
			if err := recv.Attach("b", decorated); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, size)
			for i := 1; i <= sends; i++ {
				for j := range buf {
					buf[j] = byte(i)
				}
				if err := send.Send("a", "b", buf); err != nil {
					t.Fatal(err)
				}
				for j := range buf {
					buf[j] = 0xEE // the sender's buffer is its own again
				}
			}
			deadline := time.After(10 * time.Second)
			for i := 0; i < sends*c.copies; i++ {
				select {
				case <-arrived:
				case <-deadline:
					t.Fatalf("timed out after %d of %d deliveries", i, sends*c.copies)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if len(changed) > 0 {
				t.Fatalf("%d payloads changed before the handler holding them returned: %v", len(changed), changed)
			}
			seen := make(map[byte]int)
			for _, p := range kept {
				if len(p) != size {
					t.Fatalf("delivered %d bytes, want %d", len(p), size)
				}
				for j, b := range p {
					if b != p[0] || b == 0xEE {
						t.Fatalf("payload of send %d changed after delivery: byte %d is %#x", p[0], j, b)
					}
				}
				seen[p[0]]++
			}
			for i := 1; i <= sends; i++ {
				if seen[byte(i)] != c.copies {
					t.Fatalf("send %d delivered %d times, want %d", i, seen[byte(i)], c.copies)
				}
			}
		})
	}
}

// TestEncodeDataLayout checks the data and control frames against the
// layout mux.go documents, byte for byte, and that framing into a buffer
// with room — a peer's send queue — allocates nothing.
func TestEncodeDataLayout(t *testing.T) {
	payload := []byte("payload bytes")
	body := "\x06" + "\x06source" + "\x0bdestination" + string(payload)
	want := "queued" + string(binary.BigEndian.AppendUint32(nil, uint32(len(body)))) + body
	buf := appendData([]byte("queued"), "source", "destination", payload)
	if string(buf) != want {
		t.Fatalf("appendData = %x, want %x", buf, want)
	}
	if got := appendControl(nil, frameDeselect, "idle"); string(got) != "\x00\x00\x00\x06\x03\x04idle" {
		t.Fatalf("appendControl(deselect) = %x", got)
	}
	if got := appendControl(nil, frameLinktest, "ignored"); string(got) != "\x00\x00\x00\x01\x04" {
		t.Fatalf("appendControl(linktest) = %x", got)
	}
	if n := testing.AllocsPerRun(100, func() { buf = appendData(buf[:0], "source", "destination", payload) }); n != 0 {
		t.Fatalf("appendData into a buffer with room allocates %v times, want 0", n)
	}
}
