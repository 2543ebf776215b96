package wire

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

const (
	defaultIdleTimeout  = 2 * time.Minute
	defaultWriteTimeout = 10 * time.Second
)

// endpoint is the connection server both daemons run: the listener, the
// accept loop, the live-connection set, and the per-connection read loop
// with its codec handshake. A daemon supplies only what a request means
// (handle) and what a vanished client leaves behind (gone).
type endpoint struct {
	ln     net.Listener
	label  string   // site label on metrics and the ID in the welcome
	codecs []string // codecs the handshake may pick (nil allows all)
	idle   time.Duration
	write  time.Duration
	limit  int
	log    *obs.Logger
	m      endpointMetrics

	handle func(*serverConn, Envelope) Envelope
	gone   func(*serverConn)

	mu     sync.Mutex
	conns  map[*serverConn]struct{}
	closed bool

	wg sync.WaitGroup // the accept loop, connections, and daemon goroutines
}

// endpointConfig is what a daemon's config says about its connections.
// The timeouts follow ServerConfig semantics: zero means the default,
// negative disables the deadline.
type endpointConfig struct {
	label                     string
	codecs                    []string
	idleTimeout, writeTimeout time.Duration
	maxFrameBytes             int
	metrics                   *obs.Registry
	log                       *obs.Logger
}

// endpointMetrics are the connection-level instruments, labeled by the
// daemon's site label ("broker" for a broker).
type endpointMetrics struct {
	connections     *obs.Gauge
	idleReaps       *obs.Counter
	framesOversized *obs.Counter
	codecs          *obs.CounterVec
}

// timeoutOr resolves a configured timeout: zero means def, negative means
// none.
func timeoutOr(d, def time.Duration) time.Duration {
	if d == 0 {
		return def
	}
	if d < 0 {
		return 0
	}
	return d
}

// listen opens the endpoint's listener on addr. Connections are accepted
// only once start installs the daemon's handlers.
func listen(addr string, cfg endpointConfig) (*endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	reg := cfg.metrics
	return &endpoint{
		ln:     ln,
		label:  cfg.label,
		codecs: cfg.codecs,
		idle:   timeoutOr(cfg.idleTimeout, defaultIdleTimeout),
		write:  timeoutOr(cfg.writeTimeout, defaultWriteTimeout),
		limit:  maxFrameBytes(cfg.maxFrameBytes),
		log:    cfg.log,
		m: endpointMetrics{
			connections:     reg.Gauge("wire_connections", "Live client connections.", "site").With(cfg.label),
			idleReaps:       reg.Counter("wire_idle_reaps_total", "Connections closed by the idle timeout.", "site").With(cfg.label),
			framesOversized: reg.Counter("wire_frames_oversized_total", "Inbound frames rejected for exceeding the configured size cap.", "site").With(cfg.label),
			codecs:          reg.Counter("wire_codec_negotiated_total", "Connections by negotiated wire codec; json-v1 means a pre-handshake v1 client.", "site", "codec"),
		},
		conns: make(map[*serverConn]struct{}),
	}, nil
}

// start installs the daemon's handlers and begins accepting connections.
func (e *endpoint) start(handle func(*serverConn, Envelope) Envelope, gone func(*serverConn)) {
	e.handle, e.gone = handle, gone
	e.spawn(func() {
		for {
			conn, err := e.ln.Accept()
			if err != nil {
				return // listener closed
			}
			e.spawn(func() { e.serve(conn) })
		}
	})
}

// spawn runs f on a goroutine that close waits for.
func (e *endpoint) spawn(f func()) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		f()
	}()
}

func (e *endpoint) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// close shuts the endpoint down once: it marks it closed (a connection
// arriving from then on is refused), runs drain, then closes the listener
// and every live connection and waits for every tracked goroutine. first
// is false when the endpoint was already closed; drain did not run then.
func (e *endpoint) close(drain func()) (first bool, err error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return false, nil
	}
	e.closed = true
	conns := make([]*serverConn, 0, len(e.conns))
	for sc := range e.conns {
		conns = append(conns, sc)
	}
	e.mu.Unlock()

	drain()
	err = e.ln.Close()
	for _, sc := range conns {
		_ = sc.conn.Close()
	}
	e.wg.Wait()
	return true, err
}

// serve runs one connection's read loop. A bare envelope as the first
// frame is a v1 client; a hello as the first frame negotiates the codec,
// its reply going out as JSON before the switch. Frames that are too long
// or do not decode are answered with TypeError and the connection keeps
// serving; an I/O error or the idle deadline ends it.
func (e *endpoint) serve(conn net.Conn) {
	sc := &serverConn{conn: conn, bw: bufio.NewWriter(conn), writeTimeout: e.write, codec: defaultCodec()}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		conn.Close()
		return
	}
	e.conns[sc] = struct{}{}
	e.mu.Unlock()
	e.m.connections.Add(1)
	defer func() {
		conn.Close()
		e.m.connections.Add(-1)
		e.mu.Lock()
		delete(e.conns, sc)
		e.mu.Unlock()
		e.gone(sc)
	}()

	remote := conn.RemoteAddr().String()
	br := bufio.NewReaderSize(conn, 64*1024)
	rd := defaultCodec()
	var scratch []byte
	var env Envelope
	first := true
	for {
		if e.idle > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(e.idle))
		}
		var reply Envelope
		err := rd.Read(br, e.limit, &scratch, &env)
		switch {
		case errors.Is(err, ErrTooLong):
			// The oversized frame was drained whole: report the protocol
			// error and keep serving the connection.
			e.m.framesOversized.Inc()
			e.log.Warn("oversized frame discarded", "remote", remote, "limit_bytes", e.limit)
			reply = Envelope{Type: TypeError, Reason: err.Error()}
		case IsProtocolError(err):
			reply = Envelope{Type: TypeError, Reason: err.Error()}
		case err != nil:
			var ne net.Error
			switch {
			case errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed):
			case errors.As(err, &ne) && ne.Timeout():
				e.m.idleReaps.Inc()
				e.log.Info("connection idle-reaped", "remote", remote)
			default:
				e.log.Warn("connection read error", "remote", remote, "err", err.Error())
			}
			return
		case env.Type == TypeHello && !first:
			// A handshake can only open a session; mid-session hellos are
			// protocol errors, answered without dropping the connection.
			reply = Envelope{Type: TypeError, ReqID: env.ReqID, Reason: "wire: hello after session established"}
		case env.Type == TypeHello:
			first = false
			welcome, next, ok := helloReply(env, e.codecs, e.label)
			// The reply always travels as v1 JSON; only after it is flushed
			// does the connection switch codecs.
			if sc.send(welcome) != nil {
				return
			}
			codec := codecLabelV1
			if ok {
				sc.setCodec(next)
				rd = next
				codec = next.Name()
				e.log.Info("negotiated wire codec", "remote", remote, "codec", codec)
			}
			e.m.codecs.With(e.label, codec).Inc()
			continue
		default:
			if first {
				// A bare envelope as the first frame is a v1 client.
				first = false
				e.m.codecs.With(e.label, codecLabelV1).Inc()
			}
			reply = e.handle(sc, env)
			reply.ReqID = env.ReqID
		}
		if sc.send(reply) != nil {
			return
		}
	}
}

// serverConn is one accepted connection's write side. Replies from the
// read loop and pushes from other goroutines (settlements, digests) share
// it, so every write goes through send.
type serverConn struct {
	mu           sync.Mutex // serializes writes; settlements race with replies
	conn         net.Conn
	bw           *bufio.Writer
	writeTimeout time.Duration
	codec        Codec  // write-side codec; swapped once at handshake, under mu
	enc          []byte // reusable encode buffer, guarded by mu

	// digestMu guards the connection's digest-push subscription; a
	// re-subscription replaces the running pusher, and the serve loop stops
	// it at disconnect so a long push interval cannot outlive the conn.
	digestMu   sync.Mutex
	digestStop chan struct{}
}

func (c *serverConn) setCodec(codec Codec) {
	c.mu.Lock()
	c.codec = codec
	c.mu.Unlock()
}

func (c *serverConn) send(e Envelope) error {
	// Encode into the connection's scratch buffer under the write lock: an
	// encode error writes nothing, and the buffer is reused frame after
	// frame so steady-state sends allocate nothing.
	c.mu.Lock()
	buf, err := c.codec.Append(c.enc[:0], &e)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	if cap(buf) <= maxPooledEncBuf {
		c.enc = buf
	}
	if c.writeTimeout > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
	_, err = c.bw.Write(buf)
	if err == nil {
		err = c.bw.Flush()
	}
	c.mu.Unlock()
	return err
}
