package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file is the TCP transport's wire vocabulary: length-prefixed frames
// multiplexing many logical node names over one stream, in the HSMS mold
// (select handshake, linktest heartbeat, deselect goodbye). The layer adds
// no checksums — TCP's are in force, and the guardian wire format above
// carries its own CRC — and no reliability beyond the stream's own:
// everything queued but unsent when a connection dies is gone, which is
// exactly the "ordered until reset" contract streams give.
//
// Frame layout (big endian):
//
//	u32   length of what follows (type byte + body)
//	u8    type
//	...   body
//
// Bodies:
//
//	select / selectAck:  uvarint len + advertised listener address.
//	  The dialer's select names the address its own listener answers at;
//	  the acceptor keys the connection by that string, which is what lets
//	  replies to a learned node name reuse the inbound connection instead
//	  of dialing a second one.
//	deselect:            uvarint len + reason ("idle", "collision", ...).
//	linktest/linktestAck: empty. A linktestAck (or any other frame) proves
//	  the peer's read loop is alive; unanswered linktests are the only way
//	  a half-open connection is ever noticed.
//	data:                uvarint len + source node name,
//	                     uvarint len + destination node name,
//	                     payload (the rest of the body).
//	  Source names keep fragment reassembly above keyed per logical
//	  sender even when several share the stream; destination names pick
//	  the attached handler.
const (
	frameSelect      = byte(1)
	frameSelectAck   = byte(2)
	frameDeselect    = byte(3)
	frameLinktest    = byte(4)
	frameLinktestAck = byte(5)
	frameData        = byte(6)
)

// frameOverhead bounds the non-payload bytes of a data frame: length
// prefix, type, and two uvarint-prefixed names.
const frameOverhead = 4 + 1 + 2*(5+maxNodeName)

// maxNodeName bounds the logical names a data frame may carry. Node names
// are short identifiers; a kilobyte of headroom is generous.
const maxNodeName = 1024

// ErrBadFrame reports a stream protocol violation. It is terminal for the
// connection that produced it: framing state is unrecoverable mid-stream.
var ErrBadFrame = errors.New("transport: malformed tcp frame")

// sealFrame fills in the length prefix of the frame that starts at
// dst[start] and ends with dst.
func sealFrame(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// encodeString appends a uvarint-prefixed string.
func encodeString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendData appends to buf one data frame carrying payload from src to
// dst. It copies payload: after Send has returned the caller's bytes are no
// longer the transport's to read, and the connection's writer runs later.
func appendData(buf []byte, src, dst Addr, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, frameData)
	buf = encodeString(buf, string(src))
	buf = encodeString(buf, string(dst))
	buf = append(buf, payload...)
	return sealFrame(buf, start)
}

// appendControl appends to buf a control frame with its string body
// (advertised address for select/selectAck, reason for deselect; the
// linktests have none).
func appendControl(buf []byte, typ byte, s string) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, typ)
	if typ != frameLinktest && typ != frameLinktestAck {
		buf = encodeString(buf, s)
	}
	return sealFrame(buf, start)
}

// readFrame reads one frame into buf, bounding the body at max bytes, and
// returns buf — grown to the frame's length if it was shorter — for the
// next call: a connection's reader reads every frame into one buffer, the
// handshakes pass nil. A frame larger than the bound is a protocol
// violation, not a big message: the sender enforces the same bound, so an
// oversized length means the stream is desynchronized or hostile.
func readFrame(br *bufio.Reader, max int, buf []byte) (typ byte, body, next []byte, err error) {
	hdr, err := br.Peek(4) // not io.ReadFull: a header array would escape
	if err != nil {
		return 0, nil, buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	_, _ = br.Discard(4)
	if n < 1 || n > max+1 {
		return 0, nil, buf, fmt.Errorf("%w: frame length %d (max %d)", ErrBadFrame, n, max)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return 0, nil, buf, err
	}
	return buf[0], buf[1:], buf, nil
}

// cutString consumes one uvarint-prefixed string from body, as a view. The
// length must be in its shortest encoding, the only one encodeString
// writes: a multi-byte uvarint ending in a zero byte is refused.
func cutString(body []byte, maxLen int) (s, rest []byte, err error) {
	n, k := binary.Uvarint(body)
	if k <= 0 || (k > 1 && body[k-1] == 0) || n > uint64(maxLen) || uint64(len(body)-k) < n {
		return nil, nil, ErrBadFrame
	}
	return body[k : k+int(n)], body[k+int(n):], nil
}

// decodeData splits a data frame body into its source, destination and
// payload, all three views of body.
func decodeData(body []byte) (src, dst, payload []byte, err error) {
	src, rest, err := cutString(body, maxNodeName)
	if err != nil {
		return nil, nil, nil, err
	}
	dst, payload, err = cutString(rest, maxNodeName)
	return src, dst, payload, err
}

// decodeControl extracts the string body of a select/selectAck/deselect.
func decodeControl(body []byte) (string, error) {
	s, rest, err := cutString(body, 4096)
	if err != nil || len(rest) != 0 {
		return "", ErrBadFrame
	}
	return string(s), nil
}
