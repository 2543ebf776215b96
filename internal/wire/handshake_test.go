package wire

import (
	"fmt"
	"net"
	"strings"
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

// welcomeJSON plays a fake server's side of the handshake: it reads the
// hello and answers with a JSON welcome.
func welcomeJSON(conn net.Conn) error {
	if _, err := readHandshakeLine(conn); err != nil {
		return err
	}
	welcome := Envelope{Type: TypeWelcome, Proto: ProtoV2, Codec: CodecJSON}
	out, _ := jsonCodec{}.Append(nil, &welcome)
	_, err := conn.Write(out)
	return err
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

// TestHandshakeMatrix pins codec choice: the welcome names the first
// offered codec that is built in, with JSON as the floor, and the
// negotiated-codec counter attributes each connection to that codec.
func TestHandshakeMatrix(t *testing.T) {
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
		reg := obs.NewRegistry()
		srv := startServer(t, ServerConfig{Metrics: reg})
		c := dialServerCodec(t, srv, CodecJSON)
		if got := c.NegotiatedCodec(); got != CodecJSON {
			t.Fatalf("NegotiatedCodec = %q, want %q", got, CodecJSON)
		}
		exerciseExchange(t, c, 3)
		if n := srv.ep.m.codecs.With("test-site", CodecJSON).Value(); n != 1 {
			t.Fatalf("json connections counted = %v, want 1", n)
		}
	})

	// Offers the dialer cannot make — an unknown name first, or nothing at
	// all — go through a raw hello.
	for _, tc := range []struct {
		name   string
		offers []string
	}{
		{"unknown codec then json", []string{"gopher", CodecJSON}},
		{"nothing offered", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			srv := startServer(t, ServerConfig{Metrics: reg})
			c := dialRaw(t, srv.Addr())
			c.send(HelloEnvelope(tc.offers...))
			if r := c.reply(); r.Type != TypeWelcome || r.Codec != CodecJSON || r.Proto != ProtoV2 {
				t.Fatalf("hello offering %q answered with %+v, want a json welcome", tc.offers, r)
			}
			c.serves()
			if n := srv.ep.m.codecs.With("test-site", CodecJSON).Value(); n != 1 {
				t.Fatalf("json connections counted = %v, want 1", n)
			}
		})
	}

	t.Run("v2 client, v1 server", func(t *testing.T) {
		// A server that does not understand hello answers it with a
		// TypeError envelope: the dial fails rather than guessing a codec.
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
			if _, err := readHandshakeLine(conn); err != nil {
				return
			}
			reply := Envelope{Type: TypeError, Reason: fmt.Sprintf("unexpected message %q", TypeHello)}
			out, _ := jsonCodec{}.Append(nil, &reply)
			_, _ = conn.Write(out)
		}()

		c, err := DialConfig(ln.Addr().String(), ClientConfig{Codec: CodecBinary})
		if err == nil {
			c.Close()
			t.Fatal("dial against a server refusing the hello succeeded, want an error")
		}
		if !strings.Contains(err.Error(), "hello refused") {
			t.Fatalf("dial error %v, want a refused hello", err)
		}
		wg.Wait()
	})
}

// TestDialConfigCodec pins what a dialer's codec name means: empty is
// binary, a built-in name is honored, and a name that is not built in
// fails before any connection is made.
func TestDialConfigCodec(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	for _, tc := range []struct {
		name, codec, want string // want "" means the dial must fail
	}{
		{"empty", "", CodecBinary},
		{"json", CodecJSON, CodecJSON},
		{"binary", CodecBinary, CodecBinary},
		{"unknown", "binry", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := DialConfig(srv.Addr(), ClientConfig{Codec: tc.codec})
			if tc.want == "" {
				if err == nil {
					c.Close()
					t.Fatalf("DialConfig with codec %q succeeded, want an error", tc.codec)
				}
				if !strings.Contains(err.Error(), "unknown codec") {
					t.Fatalf("DialConfig error %v, want an unknown-codec error", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if got := c.NegotiatedCodec(); got != tc.want {
				t.Fatalf("NegotiatedCodec = %q, want %q", got, tc.want)
			}
		})
	}
	// Dial is DialConfig with the zero config: it negotiates binary.
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.NegotiatedCodec(); got != CodecBinary {
		t.Fatalf("Dial negotiated %q, want %q", got, CodecBinary)
	}
}

// TestHandshakeMalformedHello pins the failure mode inside a session: a
// hello with an unsupported proto is answered with a TypeError envelope
// echoing its request ID — not a dropped connection — and the session
// continues. (As a first frame it closes the connection; see
// TestEndpointServesBothDaemons.)
func TestHandshakeMalformedHello(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	c := dialSession(t, srv.Addr())

	// Proto 1 in a hello is malformed: v2 is the first version that has one.
	c.send(Envelope{Type: TypeHello, Proto: 1, Codecs: []string{CodecBinary}, ReqID: "h1"})
	reply := c.reply()
	if reply.Type != TypeError {
		t.Fatalf("malformed hello answered with %q, want %q", reply.Type, TypeError)
	}
	if reply.ReqID != "h1" {
		t.Fatalf("error reply dropped the request ID: %+v", reply)
	}
	// The connection must still serve.
	c.send(BidEnvelope(testBid(7, 5)))
	if reply = c.reply(); reply.Type != TypeServerBid {
		t.Fatalf("post-error bid answered with %q, want %q", reply.Type, TypeServerBid)
	}
}

// TestHandshakeHelloMidSession checks that a hello after the opening one
// is rejected without dropping the connection: codec switches are only
// legal as the opening exchange.
func TestHandshakeHelloMidSession(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	c := dialSession(t, srv.Addr())

	c.send(BidEnvelope(testBid(8, 5)))
	if reply := c.reply(); reply.Type != TypeServerBid {
		t.Fatalf("opening bid answered with %q", reply.Type)
	}
	c.send(HelloEnvelope(CodecBinary))
	if reply := c.reply(); reply.Type != TypeError {
		t.Fatalf("mid-session hello answered with %q, want %q", reply.Type, TypeError)
	}
	// Still serving.
	c.send(Envelope{Type: TypeQuery, TaskID: 9999})
	if reply := c.reply(); reply.Type != TypeStatus {
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

// TestBrokerSiteCodecDefaults pins the broker's site-facing dials: the
// default BrokerConfig negotiates binary and the lane carries a full
// exchange.
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

	t.Run("unknown codec fails the broker", func(t *testing.T) {
		srv := startServer(t, ServerConfig{})
		b, err := NewBrokerServer("127.0.0.1:0", BrokerConfig{SiteAddrs: []string{srv.Addr()}, SiteCodec: "binry"})
		if err == nil {
			b.Close()
			t.Fatal("broker with an unknown site codec started, want an error")
		}
		if !strings.Contains(err.Error(), "unknown codec") {
			t.Fatalf("broker error %v, want an unknown-codec error", err)
		}
	})
}
