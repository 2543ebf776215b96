package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"sync"
)

// ErrTooLong reports an inbound frame larger than the configured cap. The
// oversized frame is discarded through its terminating newline, so the
// stream stays synchronized: servers answer it with a protocol error and
// keep serving the connection instead of killing it, which is what the old
// bufio.Scanner cap did.
var ErrTooLong = errors.New("wire: frame exceeds the configured size limit")

// DefaultMaxFrameBytes is the frame cap applied when a config leaves
// MaxFrameBytes zero — the same 1 MiB the scanner-based readers enforced.
const DefaultMaxFrameBytes = 1 << 20

// maxFrameBytes resolves a config's frame cap.
func maxFrameBytes(n int) int {
	if n <= 0 {
		return DefaultMaxFrameBytes
	}
	return n
}

// readFrame returns the next newline-terminated frame from br, without its
// line ending, reusing *buf across calls. A frame longer than max is
// drained through its newline and reported as ErrTooLong, leaving the
// reader positioned at the next frame. A final unterminated frame before
// EOF is returned as-is (matching bufio.Scanner); a bare EOF returns
// io.EOF.
func readFrame(br *bufio.Reader, max int, buf *[]byte) ([]byte, error) {
	*buf = (*buf)[:0]
	for {
		chunk, err := br.ReadSlice('\n')
		*buf = append(*buf, chunk...)
		switch err {
		case nil:
			line := (*buf)[:len(*buf)-1]
			if len(line) > 0 && line[len(line)-1] == '\r' {
				line = line[:len(line)-1]
			}
			if len(line) > max {
				return nil, ErrTooLong
			}
			return line, nil
		case bufio.ErrBufferFull:
			if len(*buf) > max {
				// Already over the cap with no newline in sight: drain the
				// rest of the line so the stream stays framed, then report.
				for {
					_, derr := br.ReadSlice('\n')
					if derr == nil {
						return nil, ErrTooLong
					}
					if derr != bufio.ErrBufferFull {
						return nil, derr
					}
				}
			}
		case io.EOF:
			if len(*buf) == 0 {
				return nil, io.EOF
			}
			line := *buf
			if len(line) > max {
				return nil, ErrTooLong
			}
			return line, nil
		default:
			return nil, err
		}
	}
}

// encBuf is a pooled envelope encode buffer: the buffer and its bound JSON
// encoder are reused across RPCs so the hot path does not allocate a fresh
// marshal buffer per message. json.Encoder.Encode appends the trailing
// newline itself, which is the codec's line framing.
type encBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	e := &encBuf{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// maxPooledEncBuf keeps a pathological envelope from pinning a huge buffer
// in the pool forever; oversized buffers are dropped for GC instead.
const maxPooledEncBuf = 64 * 1024

// encodeEnvelope frames e as one JSON line in a pooled buffer. The caller
// writes eb.buf.Bytes() and must hand the buffer back via releaseEncBuf.
func encodeEnvelope(e Envelope) (*encBuf, error) {
	eb := encPool.Get().(*encBuf)
	eb.buf.Reset()
	if err := eb.enc.Encode(e); err != nil {
		encPool.Put(eb)
		return nil, err
	}
	return eb, nil
}

// releaseEncBuf returns an encode buffer to the pool, dropping oversized
// ones for GC instead.
func releaseEncBuf(eb *encBuf) {
	if eb.buf.Cap() <= maxPooledEncBuf {
		encPool.Put(eb)
	}
}
