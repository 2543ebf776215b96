package wire

import (
	"fmt"
	"io"
	"net"
	"time"
)

// handshakeLineMax bounds the one JSON line each handshake side reads
// before the negotiated codec takes over.
const handshakeLineMax = 16 * 1024

// HelloEnvelope builds the opening frame, offering codec names in
// preference order. The hello itself is always sent as a JSON line.
func HelloEnvelope(codecs ...string) Envelope {
	return Envelope{Type: TypeHello, Proto: ProtoV2, Codecs: codecs}
}

// helloReply answers a connection's first frame and names the codec the
// connection switches to afterward. Only a hello with proto 2 or later
// opens a session; anything else yields ok=false and a TypeError reply,
// after which the connection closes. The welcome names the first offered
// codec that is built in, with JSON as the floor, so negotiation itself
// cannot fail.
func helloReply(env Envelope, siteID string) (reply Envelope, next Codec, ok bool) {
	switch {
	case env.Type != TypeHello:
		return Envelope{Type: TypeError, ReqID: env.ReqID, Reason: "wire: connection must open with a hello"}, nil, false
	case env.Proto < ProtoV2:
		return Envelope{
			Type:   TypeError,
			ReqID:  env.ReqID,
			Reason: fmt.Sprintf("wire: hello with unsupported proto %d", env.Proto),
		}, nil, false
	}
	next = jsonCodec{}
	for _, name := range env.Codecs {
		if c, known := CodecByName(name); known {
			next = c
			break
		}
	}
	reply = Envelope{Type: TypeWelcome, Proto: ProtoV2, Codec: next.Name(), SiteID: siteID, ReqID: env.ReqID}
	return reply, next, true
}

// clientHandshake runs the hello/welcome exchange on a freshly dialed
// connection and returns the codec the rest of the connection speaks.
// prefer names the codec the client wants; JSON is always offered as the
// fallback. A refused hello fails the dial.
func clientHandshake(conn net.Conn, prefer string, timeout time.Duration) (Codec, error) {
	offers := []string{prefer}
	if prefer != CodecJSON {
		offers = append(offers, CodecJSON)
	}
	hello := HelloEnvelope(offers...)
	line, err := jsonCodec{}.Append(nil, &hello)
	if err != nil {
		return nil, err
	}
	if timeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
		defer conn.SetDeadline(time.Time{})
	}
	if _, err := conn.Write(line); err != nil {
		return nil, fmt.Errorf("wire: handshake write: %w", err)
	}
	reply, err := readHandshakeLine(conn)
	if err != nil {
		return nil, fmt.Errorf("wire: handshake read: %w", err)
	}
	var env Envelope
	if err := decodeJSONEnvelope(reply, &env); err != nil {
		return nil, fmt.Errorf("wire: handshake reply: %w", err)
	}
	switch env.Type {
	case TypeWelcome:
		c, ok := CodecByName(env.Codec)
		if !ok {
			return nil, fmt.Errorf("wire: welcome names unknown codec %q", env.Codec)
		}
		return c, nil
	case TypeError:
		return nil, fmt.Errorf("wire: hello refused: %s", env.Reason)
	default:
		return nil, fmt.Errorf("wire: unexpected %q reply to hello", env.Type)
	}
}

// readHandshakeLine reads one newline-terminated frame directly off the
// connection, byte by byte — deliberately unbuffered so no bytes beyond
// the welcome are consumed before the negotiated codec's reader takes
// over.
func readHandshakeLine(conn net.Conn) ([]byte, error) {
	buf := make([]byte, 0, 256)
	var one [1]byte
	for {
		if _, err := io.ReadFull(conn, one[:]); err != nil {
			return nil, err
		}
		if one[0] == '\n' {
			return buf, nil
		}
		buf = append(buf, one[0])
		if len(buf) > handshakeLineMax {
			return nil, fmt.Errorf("handshake reply exceeds %d bytes", handshakeLineMax)
		}
	}
}
