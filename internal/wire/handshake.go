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

// HelloEnvelope builds the v2 opening frame, offering codec names in
// preference order. The hello itself is always sent as a JSON line.
func HelloEnvelope(codecs ...string) Envelope {
	return Envelope{Type: TypeHello, Proto: ProtoV2, Codecs: codecs}
}

// helloReply computes the server's answer to an inbound hello and the
// codec the connection switches to afterward. allowed restricts which
// codecs the server will negotiate (nil allows every registered codec);
// JSON is always available as the floor, so negotiation cannot fail —
// only a malformed hello (bad proto) yields ok=false, answered with a
// TypeError envelope while the connection stays on v1 JSON.
func helloReply(env Envelope, allowed []string, siteID string) (reply Envelope, next Codec, ok bool) {
	if env.Proto < ProtoV2 {
		return Envelope{
			Type:   TypeError,
			ReqID:  env.ReqID,
			Reason: fmt.Sprintf("wire: hello with unsupported proto %d", env.Proto),
		}, nil, false
	}
	pick := CodecJSON
	for _, name := range env.Codecs {
		if _, registered := CodecByName(name); !registered {
			continue
		}
		if !codecAllowed(allowed, name) {
			continue
		}
		pick = name
		break
	}
	next, _ = CodecByName(pick)
	reply = Envelope{Type: TypeWelcome, Proto: ProtoV2, Codec: pick, SiteID: siteID, ReqID: env.ReqID}
	return reply, next, true
}

// codecAllowed reports whether name is in the allow list. A nil/empty
// list allows everything; JSON is always allowed — it is the mandatory
// fallback both sides can speak.
func codecAllowed(allowed []string, name string) bool {
	if name == CodecJSON || len(allowed) == 0 {
		return true
	}
	for _, a := range allowed {
		if a == name {
			return true
		}
	}
	return false
}

// clientHandshake runs the hello/welcome exchange on a freshly dialed
// connection and returns the codec the rest of the connection speaks.
// prefer names the codec the client wants; JSON is always offered as the
// fallback. A v1 server answers the unknown hello with a TypeError
// envelope and keeps serving, so that reply downgrades the connection to
// v1 JSON rather than failing the dial.
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
		// A v1 peer: it rejected the hello as an unknown message but the
		// connection is healthy, so fall back to v1 JSON.
		return defaultCodec(), nil
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
