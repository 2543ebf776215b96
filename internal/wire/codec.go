package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Codec is the wire encoding for one connection. The server and every
// client speak JSON lines (protocol v1) until a hello/welcome handshake
// switches the connection to a negotiated codec; after the switch both
// sides frame every envelope through the same Codec.
//
// Append serializes one envelope onto dst (including the codec's framing)
// and returns the extended slice — an append-style API so callers can
// reuse one scratch buffer per connection and encode without allocating.
// Read decodes the next envelope from br into e, enforcing max as the
// frame-size cap. Read distinguishes three failure classes by error type:
//
//   - ErrTooLong: the frame exceeded max but the stream is resynchronized
//     past it — the caller may answer with an error envelope and keep
//     reading.
//   - *ProtocolError: the frame was delimited but its payload did not
//     decode — also recoverable, the stream is positioned at the next
//     frame.
//   - anything else is an I/O error and ends the connection.
type Codec interface {
	// Name is the identifier exchanged during codec negotiation.
	Name() string
	Append(dst []byte, e *Envelope) ([]byte, error)
	Read(br *bufio.Reader, max int, scratch *[]byte, e *Envelope) error
}

// Registered codec names.
const (
	CodecJSON   = "json"   // newline-delimited JSON envelopes (protocol v1 framing)
	CodecBinary = "binary" // length-prefixed binary envelopes (see binary.go)

	// codecLabelV1 labels connections that never negotiated — a bare v1
	// envelope as the first frame — in the negotiated-codec metric.
	codecLabelV1 = "json-v1"
)

// ProtocolError reports a recoverable decode failure: the frame was
// well-delimited, so the connection can answer with a TypeError envelope
// and continue, but this frame's payload did not parse.
type ProtocolError struct{ Err error }

func (e *ProtocolError) Error() string { return e.Err.Error() }
func (e *ProtocolError) Unwrap() error { return e.Err }

// IsProtocolError reports whether err is a recoverable per-frame decode
// failure (as opposed to a connection-fatal I/O error).
func IsProtocolError(err error) bool {
	var pe *ProtocolError
	return errors.As(err, &pe)
}

var (
	codecMu  sync.RWMutex
	codecs   = map[string]Codec{}
	codecOrd []string // registration order = default preference order
)

// RegisterCodec adds a codec to the negotiation registry. Registration
// order sets the default preference order offered in a hello.
func RegisterCodec(c Codec) {
	codecMu.Lock()
	defer codecMu.Unlock()
	if _, dup := codecs[c.Name()]; dup {
		panic(fmt.Sprintf("wire: codec %q registered twice", c.Name()))
	}
	codecs[c.Name()] = c
	codecOrd = append(codecOrd, c.Name())
}

// CodecByName looks up a registered codec.
func CodecByName(name string) (Codec, bool) {
	codecMu.RLock()
	defer codecMu.RUnlock()
	c, ok := codecs[name]
	return c, ok
}

// CodecNames returns the registered codec names, sorted.
func CodecNames() []string {
	codecMu.RLock()
	defer codecMu.RUnlock()
	names := append([]string(nil), codecOrd...)
	sort.Strings(names)
	return names
}

func init() {
	RegisterCodec(binaryCodec{})
	RegisterCodec(jsonCodec{})
}

// defaultCodec is what every connection starts on: protocol v1 JSON.
func defaultCodec() Codec { return jsonCodec{} }

// jsonCodec frames envelopes as newline-delimited JSON objects — the
// protocol the service has always spoken, byte-for-byte. Encoding goes
// through the pooled json.Encoder machinery in frame.go.
type jsonCodec struct{}

func (jsonCodec) Name() string { return CodecJSON }

func (jsonCodec) Append(dst []byte, e *Envelope) ([]byte, error) {
	eb, err := encodeEnvelope(*e)
	if err != nil {
		return dst, err
	}
	dst = append(dst, eb.buf.Bytes()...)
	releaseEncBuf(eb)
	return dst, nil
}

func (jsonCodec) Read(br *bufio.Reader, max int, scratch *[]byte, e *Envelope) error {
	for {
		line, err := readFrame(br, maxFrameBytes(max), scratch)
		if err != nil {
			return err
		}
		if len(line) == 0 {
			continue // blank keep-alive line
		}
		return decodeJSONEnvelope(line, e)
	}
}

// decodeJSONEnvelope parses one JSON line into e. It is the decode half
// of the JSON codec.
func decodeJSONEnvelope(line []byte, e *Envelope) error {
	*e = Envelope{}
	if err := json.Unmarshal(line, e); err != nil {
		return &ProtocolError{Err: fmt.Errorf("wire: %w", err)}
	}
	if e.Type == "" {
		return &ProtocolError{Err: errors.New("wire: missing message type")}
	}
	return nil
}
