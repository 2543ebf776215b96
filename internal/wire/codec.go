package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
)

// Codec is the wire encoding for one connection. Every connection opens
// with a JSON-line hello/welcome handshake that names the codec; after it
// both sides frame every envelope through the same Codec.
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

// Built-in codec names.
const (
	CodecJSON   = "json"   // newline-delimited JSON envelopes, the handshake's framing
	CodecBinary = "binary" // length-prefixed binary envelopes (see binary.go)
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

// CodecByName returns the built-in codec called name.
func CodecByName(name string) (Codec, bool) {
	switch name {
	case CodecJSON:
		return jsonCodec{}, true
	case CodecBinary:
		return binaryCodec{}, true
	}
	return nil, false
}

// jsonCodec frames envelopes as newline-delimited JSON objects: the
// handshake's framing and a negotiable codec. Encoding goes through the
// pooled json.Encoder machinery in frame.go.
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
