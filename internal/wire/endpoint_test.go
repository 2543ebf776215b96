package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// rawConn is a hand-driven client connection: it writes raw frames and
// reads replies in whichever codec the connection currently speaks.
type rawConn struct {
	t     *testing.T
	conn  net.Conn
	br    *bufio.Reader
	codec Codec
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	return &rawConn{t: t, conn: conn, br: bufio.NewReader(conn), codec: jsonCodec{}}
}

// dialSession dials addr and opens the session with a JSON hello.
func dialSession(t *testing.T, addr string) *rawConn {
	t.Helper()
	c := dialRaw(t, addr)
	c.hello(CodecJSON)
	return c
}

// hello opens the session offering codec, checks the welcome names it and
// switches the connection to it.
func (c *rawConn) hello(codec string) {
	c.t.Helper()
	c.send(HelloEnvelope(codec))
	r := c.reply()
	if r.Type != TypeWelcome || r.Codec != codec {
		c.t.Fatalf("hello answered with %+v, want a %s welcome", r, codec)
	}
	c.codec, _ = CodecByName(codec)
}

// refused checks the connection answers with exactly one error and then
// closes.
func (c *rawConn) refused(want string) {
	c.t.Helper()
	if r := c.reply(); r.Type != TypeError || !strings.Contains(r.Reason, want) {
		c.t.Fatalf("refusal answered with %+v, want an error containing %q", r, want)
	}
	if _, err := c.br.ReadByte(); !errors.Is(err, io.EOF) {
		c.t.Fatalf("refused connection read %v, want EOF", err)
	}
}

func (c *rawConn) write(b []byte) {
	c.t.Helper()
	if _, err := c.conn.Write(b); err != nil {
		c.t.Fatal(err)
	}
}

func (c *rawConn) send(e Envelope) {
	c.t.Helper()
	b, err := c.codec.Append(nil, &e)
	if err != nil {
		c.t.Fatal(err)
	}
	c.write(b)
}

func (c *rawConn) reply() Envelope {
	c.t.Helper()
	var scratch []byte
	var e Envelope
	if err := c.codec.Read(c.br, 0, &scratch, &e); err != nil {
		c.t.Fatal(err)
	}
	return e
}

// serves checks the connection still answers a request, echoing its ID:
// both daemons answer a query for an unknown contract with a status.
func (c *rawConn) serves() {
	c.t.Helper()
	c.send(Envelope{Type: TypeQuery, TaskID: 9999, ReqID: "q"})
	if r := c.reply(); r.Type != TypeStatus || r.ReqID != "q" {
		c.t.Fatalf("query answered with %+v, want a status echoing the request ID", r)
	}
}

// TestEndpointServesBothDaemons runs the connection loop's edge cases
// against a site and a broker alike: each case must be counted exactly
// once under the daemon's label (a refused connection counts nothing), the
// connection it ran on must still serve (the idle reap and the refusals
// excepted, which close it), and so must a fresh one.
func TestEndpointServesBothDaemons(t *testing.T) {
	daemons := []struct {
		label string
		start func(t *testing.T, reg *obs.Registry, idle time.Duration) string
	}{
		{"test-site", func(t *testing.T, reg *obs.Registry, idle time.Duration) string {
			return startServer(t, ServerConfig{MaxFrameBytes: 4096, IdleTimeout: idle, Metrics: reg}).Addr()
		}},
		{"broker", func(t *testing.T, reg *obs.Registry, idle time.Duration) string {
			site := startServer(t, ServerConfig{})
			b, err := NewBrokerServer("127.0.0.1:0", BrokerConfig{
				SiteAddrs: []string{site.Addr()}, MaxFrameBytes: 4096, IdleTimeout: idle, Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			return b.Addr()
		}},
	}
	cases := []struct {
		name   string
		idle   time.Duration
		run    func(c *rawConn)
		sample string // formatted with the daemon's label
	}{
		{"oversized frame", 0, func(c *rawConn) {
			c.hello(CodecJSON)
			c.write(append(bytes.Repeat([]byte("x"), 8192), '\n'))
			if r := c.reply(); r.Type != TypeError || !strings.Contains(r.Reason, "size limit") {
				c.t.Fatalf("oversized frame answered with %+v, want a frame-size error", r)
			}
			c.serves()
		}, `wire_frames_oversized_total{site=%q}`},
		{"undecodable binary frame", 0, func(c *rawConn) {
			c.hello(CodecBinary)
			c.write([]byte{1, 0, 0, 0, 0xff}) // one payload byte: an unknown message code
			if r := c.reply(); r.Type != TypeError {
				c.t.Fatalf("undecodable frame answered with %+v, want an error", r)
			}
			c.serves()
		}, `wire_codec_negotiated_total{site=%q,codec="binary"}`},
		{"mid-session hello", 0, func(c *rawConn) {
			c.hello(CodecJSON)
			c.serves()
			c.send(HelloEnvelope(CodecBinary))
			if r := c.reply(); r.Type != TypeError {
				c.t.Fatalf("mid-session hello answered with %+v, want an error", r)
			}
			c.serves()
		}, `wire_codec_negotiated_total{site=%q,codec="json"}`},
		{"bare v1 first frame", 0, func(c *rawConn) {
			c.send(Envelope{Type: TypeQuery, TaskID: 9999, ReqID: "q"})
			c.refused("must open with a hello")
		}, ""},
		{"proto 1 hello", 0, func(c *rawConn) {
			c.send(Envelope{Type: TypeHello, Proto: 1, Codecs: []string{CodecBinary}})
			c.refused("unsupported proto 1")
		}, ""},
		{"idle reap", 100 * time.Millisecond, func(c *rawConn) {
			c.hello(CodecJSON)
			c.serves()
			if _, err := c.br.ReadByte(); !errors.Is(err, io.EOF) {
				c.t.Fatalf("idle connection read %v, want EOF from the reap", err)
			}
		}, `wire_idle_reaps_total{site=%q}`},
	}
	for _, d := range daemons {
		for _, tc := range cases {
			t.Run(d.label+"/"+tc.name, func(t *testing.T) {
				reg := obs.NewRegistry()
				addr := d.start(t, reg, tc.idle)
				tc.run(dialRaw(t, addr))
				if tc.sample != "" {
					sample := fmt.Sprintf(tc.sample, d.label)
					waitFor(t, sample+" == 1", func() bool { return promSamples(t, reg)[sample] == 1 })
				} else {
					for name, v := range promSamples(t, reg) {
						if strings.HasPrefix(name, "wire_codec_negotiated_total{") && v != 0 {
							t.Fatalf("refused connection counted as negotiated: %s = %v", name, v)
						}
					}
				}
				dialSession(t, addr).serves()
			})
		}
	}
}
