package transport

import (
	"bufio"
	"bytes"
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
