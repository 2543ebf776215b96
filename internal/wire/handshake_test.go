package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/task"
)

// dialServerCodec dials the test server requesting a codec through the
// hello/welcome handshake.
func dialServerCodec(t *testing.T, srv *Server, codec string) *SiteClient {
	t.Helper()
	c, err := DialConfig(srv.Addr(), ClientConfig{Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// exerciseExchange drives one full propose/award/settle/query cycle,
// proving the connection speaks the protocol end to end.
func exerciseExchange(t *testing.T, c *SiteClient, id task.ID) {
	t.Helper()
	settled := make(chan Envelope, 1)
	c.SetOnSettled(func(e Envelope) { settled <- e })
	bid := testBid(id, 5)
	sb, ok, err := c.Propose(bid)
	if err != nil || !ok {
		t.Fatalf("propose: %v %v", ok, err)
	}
	if _, ok, err := c.Award(bid, sb); err != nil || !ok {
		t.Fatalf("award: %v %v", ok, err)
	}
	<-settled
	st, err := c.Query(id)
	if err != nil || st.State != ContractSettled {
		t.Fatalf("query: %+v, %v", st, err)
	}
}

// TestHandshakeMatrix is the compatibility matrix: every pairing of v1
// and v2 peers must land on a working codec, and the negotiated-codec
// counter must attribute each connection correctly.
func TestHandshakeMatrix(t *testing.T) {
	t.Run("v1 client, v2 server", func(t *testing.T) {
		reg := obs.NewRegistry()
		srv := startServer(t, ServerConfig{Metrics: reg})
		c := dialServer(t, srv) // no handshake: bare v1 envelopes
		exerciseExchange(t, c, 1)
		if got := c.NegotiatedCodec(); got != CodecJSON {
			t.Fatalf("NegotiatedCodec = %q, want %q", got, CodecJSON)
		}
		if n := srv.ep.m.codecs.With("test-site", codecLabelV1).Value(); n != 1 {
			t.Fatalf("json-v1 connections counted = %v, want 1", n)
		}
	})

	t.Run("v2 client, v2 server, binary", func(t *testing.T) {
		reg := obs.NewRegistry()
		srv := startServer(t, ServerConfig{Metrics: reg})
		c := dialServerCodec(t, srv, CodecBinary)
		if got := c.NegotiatedCodec(); got != CodecBinary {
			t.Fatalf("NegotiatedCodec = %q, want %q", got, CodecBinary)
		}
		exerciseExchange(t, c, 2)
		if n := srv.ep.m.codecs.With("test-site", CodecBinary).Value(); n != 1 {
			t.Fatalf("binary connections counted = %v, want 1", n)
		}
	})

	t.Run("v2 client, v2 server, json preferred", func(t *testing.T) {
		srv := startServer(t, ServerConfig{})
		c := dialServerCodec(t, srv, CodecJSON)
		if got := c.NegotiatedCodec(); got != CodecJSON {
			t.Fatalf("NegotiatedCodec = %q, want %q", got, CodecJSON)
		}
		exerciseExchange(t, c, 3)
	})

	t.Run("v2 client, server restricted to json", func(t *testing.T) {
		srv := startServer(t, ServerConfig{Codecs: []string{CodecJSON}})
		c := dialServerCodec(t, srv, CodecBinary)
		if got := c.NegotiatedCodec(); got != CodecJSON {
			t.Fatalf("NegotiatedCodec = %q, want %q (server allows only json)", got, CodecJSON)
		}
		exerciseExchange(t, c, 4)
	})

	t.Run("v2 client, v1 server", func(t *testing.T) {
		// A v1 server does not understand hello: it answers with a TypeError
		// envelope and keeps serving JSON. The client must downgrade to v1
		// JSON instead of failing the dial.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			var frame []byte
			for {
				line, err := readFrame(br, DefaultMaxFrameBytes, &frame)
				if err != nil {
					return
				}
				var env Envelope
				if err := decodeJSONEnvelope(line, &env); err != nil {
					continue
				}
				var reply Envelope
				if env.Type == TypeBid {
					reply = Envelope{Type: TypeReject, TaskID: env.TaskID, Reason: "v1 stub declines"}
				} else {
					reply = Envelope{Type: TypeError, Reason: fmt.Sprintf("unexpected message %q", env.Type)}
				}
				reply.ReqID = env.ReqID
				out, _ := jsonCodec{}.Append(nil, &reply)
				if _, err := conn.Write(out); err != nil {
					return
				}
			}
		}()

		c, err := DialConfig(ln.Addr().String(), ClientConfig{Codec: CodecBinary})
		if err != nil {
			t.Fatalf("dial against v1 server failed instead of downgrading: %v", err)
		}
		defer c.Close()
		if got := c.NegotiatedCodec(); got != CodecJSON {
			t.Fatalf("NegotiatedCodec = %q, want %q after v1 downgrade", got, CodecJSON)
		}
		if _, ok, err := c.Propose(testBid(5, 5)); err != nil || ok {
			t.Fatalf("propose against stub: ok=%v err=%v, want clean reject", ok, err)
		}
		c.Close()
		wg.Wait()
	})
}

// TestHandshakeMalformedHello pins the failure mode the matrix demands:
// a hello with an unsupported proto is answered with a TypeError envelope
// — not a dropped connection — and the session continues on v1 JSON.
func TestHandshakeMalformedHello(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	send := func(e Envelope) Envelope {
		t.Helper()
		line, err := jsonCodec{}.Append(nil, &e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(line); err != nil {
			t.Fatal(err)
		}
		raw, err := readHandshakeLine(conn)
		if err != nil {
			t.Fatal(err)
		}
		var reply Envelope
		if err := decodeJSONEnvelope(raw, &reply); err != nil {
			t.Fatal(err)
		}
		return reply
	}

	// Proto 1 in a hello is malformed: v2 is the first version that has one.
	reply := send(Envelope{Type: TypeHello, Proto: ProtoV1, Codecs: []string{CodecBinary}, ReqID: "h1"})
	if reply.Type != TypeError {
		t.Fatalf("malformed hello answered with %q, want %q", reply.Type, TypeError)
	}
	if reply.ReqID != "h1" {
		t.Fatalf("error reply dropped the request ID: %+v", reply)
	}
	// The connection must still serve v1 traffic.
	bid := testBid(7, 5)
	reply = send(BidEnvelope(bid))
	if reply.Type != TypeServerBid {
		t.Fatalf("post-error bid answered with %q, want %q", reply.Type, TypeServerBid)
	}
}

// TestHandshakeHelloMidSession checks that a hello after the first frame
// is rejected without dropping the connection: codec switches are only
// legal as the opening exchange.
func TestHandshakeHelloMidSession(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	send := func(e Envelope) Envelope {
		t.Helper()
		line, err := jsonCodec{}.Append(nil, &e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(line); err != nil {
			t.Fatal(err)
		}
		raw, err := readHandshakeLine(conn)
		if err != nil {
			t.Fatal(err)
		}
		var reply Envelope
		if err := decodeJSONEnvelope(raw, &reply); err != nil {
			t.Fatal(err)
		}
		return reply
	}

	if reply := send(BidEnvelope(testBid(8, 5))); reply.Type != TypeServerBid {
		t.Fatalf("opening bid answered with %q", reply.Type)
	}
	if reply := send(HelloEnvelope(CodecBinary)); reply.Type != TypeError {
		t.Fatalf("mid-session hello answered with %q, want %q", reply.Type, TypeError)
	}
	// Still serving.
	if reply := send(Envelope{Type: TypeQuery, TaskID: 9999}); reply.Type != TypeStatus {
		t.Fatalf("post-hello query answered with %q, want %q", reply.Type, TypeStatus)
	}
}

// TestBrokerHandshake runs the binary codec end to end through the
// broker: client-to-broker and broker-to-site connections both negotiate
// binary, and a full negotiate/award/settle cycle works.
func TestBrokerHandshake(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	b, err := NewBrokerServer("127.0.0.1:0", BrokerConfig{
		SiteAddrs: []string{srv.Addr()},
		SiteCodec: CodecBinary,
		Metrics:   obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	c, err := DialConfig(b.Addr(), ClientConfig{Codec: CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.NegotiatedCodec(); got != CodecBinary {
		t.Fatalf("client-to-broker codec = %q, want %q", got, CodecBinary)
	}
	if got := b.sites[0].primary.NegotiatedCodec(); got != CodecBinary {
		t.Fatalf("broker-to-site codec = %q, want %q", got, CodecBinary)
	}

	settled := make(chan Envelope, 1)
	c.SetOnSettled(func(e Envelope) { settled <- e })
	bid := testBid(11, 5)
	sb, ok, err := c.Propose(bid)
	if err != nil || !ok {
		t.Fatalf("propose via broker: %v %v", ok, err)
	}
	if _, ok, err := c.Award(bid, sb); err != nil || !ok {
		t.Fatalf("award via broker: %v %v", ok, err)
	}
	<-settled
	if n := b.ep.m.codecs.With("broker", CodecBinary).Value(); n != 1 {
		t.Fatalf("broker binary connections counted = %v, want 1", n)
	}
}

// TestBrokerSiteCodecDefaults extends the handshake-fallback matrix to
// the broker's site-facing dials: the default BrokerConfig negotiates
// binary, SiteCodecV1 opts out of the handshake entirely, and a v1 site
// downgrades the lane to JSON while declining digest subscriptions
// without poisoning the exchange path.
func TestBrokerSiteCodecDefaults(t *testing.T) {
	t.Run("default negotiates binary", func(t *testing.T) {
		srv := startServer(t, ServerConfig{})
		b, err := NewBrokerServer("127.0.0.1:0", BrokerConfig{SiteAddrs: []string{srv.Addr()}})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if got := b.sites[0].primary.NegotiatedCodec(); got != CodecBinary {
			t.Fatalf("default broker-to-site codec = %q, want %q", got, CodecBinary)
		}
		c := dialBroker(t, b)
		exerciseExchange(t, c, 21)
	})

	t.Run("v1 opt-out skips the handshake", func(t *testing.T) {
		srv := startServer(t, ServerConfig{})
		b, err := NewBrokerServer("127.0.0.1:0", BrokerConfig{
			SiteAddrs: []string{srv.Addr()},
			SiteCodec: SiteCodecV1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if got := b.sites[0].primary.NegotiatedCodec(); got != CodecJSON {
			t.Fatalf("v1 opt-out lane codec = %q, want %q", got, CodecJSON)
		}
		c := dialBroker(t, b)
		exerciseExchange(t, c, 22)
	})

	t.Run("v1 site downgrades and declines digests", func(t *testing.T) {
		// A v1 site stub: answers bids with rejects, everything else —
		// including hello and digest_sub — with TypeError, on any number
		// of connections.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func(conn net.Conn) {
					defer conn.Close()
					br := bufio.NewReader(conn)
					var frame []byte
					for {
						line, err := readFrame(br, DefaultMaxFrameBytes, &frame)
						if err != nil {
							return
						}
						var env Envelope
						if err := decodeJSONEnvelope(line, &env); err != nil {
							continue
						}
						var reply Envelope
						if env.Type == TypeBid {
							reply = Envelope{Type: TypeReject, TaskID: env.TaskID, Reason: "v1 stub declines"}
						} else {
							reply = Envelope{Type: TypeError, Reason: fmt.Sprintf("unexpected message %q", env.Type)}
						}
						reply.ReqID = env.ReqID
						out, _ := jsonCodec{}.Append(nil, &reply)
						if _, err := conn.Write(out); err != nil {
							return
						}
					}
				}(conn)
			}
		}()

		b, err := NewBrokerServer("127.0.0.1:0", BrokerConfig{
			SiteAddrs: []string{ln.Addr().String()},
			Route:     RouteTopK,
		})
		if err != nil {
			t.Fatalf("broker against v1 site failed instead of downgrading: %v", err)
		}
		defer b.Close()
		if got := b.sites[0].primary.NegotiatedCodec(); got != CodecJSON {
			t.Fatalf("lane against v1 site = %q, want %q downgrade", got, CodecJSON)
		}

		// The digest subscription is declined, not fatal.
		if err := b.sites[0].primary.SubscribeDigests(defaultDigestInterval); !errors.Is(err, ErrDigestUnsupported) {
			t.Fatalf("digest subscription against v1 site: %v, want ErrDigestUnsupported", err)
		}

		// The exchange path still works: with no digests anywhere top-k
		// falls back to fan-out and relays the stub's clean reject.
		c := dialBroker(t, b)
		if _, ok, err := c.Propose(testBid(23, 5)); err != nil || ok {
			t.Fatalf("propose via broker against v1 stub: ok=%v err=%v, want clean decline", ok, err)
		}
	})
}
