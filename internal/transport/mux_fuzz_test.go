package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzTCPFrames feeds hostile bytes to the TCP transport's wire vocabulary
// as a connection's reader meets them: readFrame, then decodeData or
// decodeControl by frame type, frame after frame until the stream ends or a
// frame is refused. Nothing may panic; reading one frame allocates no more
// than the frame bound, whatever length its header claims; and an accepted
// data or control frame re-encodes through appendData or appendControl to
// exactly the bytes it was read from. The checked-in seeds in
// testdata/fuzz/FuzzTCPFrames hold every frame type, a stream of several,
// an oversize and a zero length, a truncated uvarint, an overlong one, a
// truncated body and a name over maxNodeName.
func FuzzTCPFrames(f *testing.F) {
	const maxFrame = 1 << 12
	maxBody := maxFrame + frameOverhead
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for off := 0; ; {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			typ, body, next, err := readFrame(br, maxBody, buf)
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n > uint64(maxBody)+1<<10 {
				t.Fatalf("reading a frame allocated %d bytes, bound %d", n, maxBody)
			}
			buf = next
			if err != nil {
				return
			}
			raw := data[off : off+5+len(body)]
			off += len(raw)
			switch typ {
			case frameData:
				src, dst, payload, err := decodeData(body)
				if err != nil {
					return
				}
				if again := appendData(nil, Addr(src), Addr(dst), payload); !bytes.Equal(again, raw) {
					t.Fatalf("data frame %x re-encodes as %x", raw, again)
				}
			case frameSelect, frameSelectAck, frameDeselect:
				s, err := decodeControl(body)
				if err != nil {
					return
				}
				if again := appendControl(nil, typ, s); !bytes.Equal(again, raw) {
					t.Fatalf("control frame %x re-encodes as %x", raw, again)
				}
			}
		}
	})
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
