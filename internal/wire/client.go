package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/task"
)

// Sentinel errors for connection-level failures. Both are transient from
// the negotiator's point of view: a Redial may recover the site.
var (
	// ErrTimeout reports a request/response exchange that exceeded the
	// configured RequestTimeout. The connection is closed when this is
	// returned — after an abandoned exchange the reply framing is
	// ambiguous — so the next call must Redial first.
	ErrTimeout = errors.New("wire: request timed out")
	// ErrConnClosed reports a connection that ended mid-exchange.
	ErrConnClosed = errors.New("wire: connection closed")
	// ErrClientClosed reports use of a client after Close.
	ErrClientClosed = errors.New("wire: client closed")
)

// ClientConfig parameterizes a SiteClient's network behavior.
type ClientConfig struct {
	// RequestTimeout bounds one request/response exchange, including the
	// write. Zero means the default (10s); negative disables the bound.
	RequestTimeout time.Duration
	// DialTimeout bounds connection establishment, including Redial.
	// Zero means the default (5s); negative disables the bound.
	DialTimeout time.Duration
	// MaxFrameBytes caps one inbound protocol frame. An oversized frame is
	// surfaced as a protocol-error reply to the in-flight exchange instead
	// of killing the connection; zero means the default (1 MiB).
	MaxFrameBytes int
	// Codec names the wire codec to request via the hello/welcome
	// handshake on every dial (and redial). Empty means no handshake: the
	// connection speaks bare protocol v1 JSON, exactly as before the codec
	// negotiation existed. A v1 server that does not understand the hello
	// downgrades the connection to JSON rather than failing the dial.
	Codec string
}

const (
	defaultRequestTimeout = 10 * time.Second
	defaultDialTimeout    = 5 * time.Second
)

func (c ClientConfig) requestTimeout() time.Duration {
	if c.RequestTimeout == 0 {
		return defaultRequestTimeout
	}
	if c.RequestTimeout < 0 {
		return 0
	}
	return c.RequestTimeout
}

func (c ClientConfig) dialTimeout() time.Duration {
	if c.DialTimeout == 0 {
		return defaultDialTimeout
	}
	if c.DialTimeout < 0 {
		return 0
	}
	return c.DialTimeout
}

// SiteClient is one client connection to a network site. Request/response
// traffic is serialized; settlement pushes are demultiplexed to the
// OnSettled callback. A client whose connection died (peer reset, request
// timeout) can be revived with Redial; contracts awarded on the dead
// connection are orphaned (see "Failure semantics" in DESIGN.md).
type SiteClient struct {
	addr string
	cfg  ClientConfig

	// mu serializes request/response exchanges and redials, so that
	// conn/bw/replies/codec are stable for the duration of a roundTrip.
	mu      sync.Mutex
	bw      *bufio.Writer
	replies chan Envelope
	codec   Codec  // negotiated write-side codec for the live connection
	enc     []byte // reusable encode buffer, guarded by mu

	// stateMu guards the fields below, which are read from the readLoop
	// goroutine and from accessors while an exchange is in flight.
	stateMu   sync.Mutex
	conn      net.Conn
	siteID    string
	codecName string
	readErr   error
	onSettled func(Envelope)
	onDigest  func(Envelope)
	closed    bool
}

// Dial connects to a site server with default timeouts.
func Dial(addr string) (*SiteClient, error) {
	return DialConfig(addr, ClientConfig{})
}

// DialConfig connects to a site server with explicit timeouts, running
// the codec handshake when cfg.Codec is set.
func DialConfig(addr string, cfg ClientConfig) (*SiteClient, error) {
	c := &SiteClient{addr: addr, cfg: cfg}
	conn, codec, err := c.dialNegotiated()
	if err != nil {
		return nil, err
	}
	c.resetConnLocked(conn, codec)
	return c, nil
}

// dialNegotiated establishes a fresh connection and, when the config asks
// for a codec, runs the hello/welcome exchange on it before any other
// traffic. On handshake failure the connection is closed, never leaked.
func (c *SiteClient) dialNegotiated() (net.Conn, Codec, error) {
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.dialTimeout())
	if err != nil {
		return nil, nil, err
	}
	if c.cfg.Codec == "" {
		return conn, defaultCodec(), nil
	}
	codec, err := clientHandshake(conn, c.cfg.Codec, c.cfg.dialTimeout())
	if err != nil {
		_ = conn.Close()
		return nil, nil, err
	}
	return conn, codec, nil
}

// resetConnLocked installs conn as the client's live connection and starts
// its read loop. Callers must hold mu (or be the constructor).
func (c *SiteClient) resetConnLocked(conn net.Conn, codec Codec) {
	replies := make(chan Envelope, 16)
	c.stateMu.Lock()
	c.conn = conn
	c.codecName = codec.Name()
	c.readErr = nil
	c.stateMu.Unlock()
	c.bw = bufio.NewWriter(conn)
	c.replies = replies
	c.codec = codec
	go c.readLoop(conn, replies, codec)
}

// Close tears the connection down. Subsequent calls and redials fail with
// ErrClientClosed.
func (c *SiteClient) Close() error {
	c.stateMu.Lock()
	c.closed = true
	conn := c.conn
	c.stateMu.Unlock()
	return conn.Close()
}

// Redial discards the current connection and establishes a fresh one to
// the same address. In-flight settlements on the old connection are lost.
func (c *SiteClient) Redial() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stateMu.Lock()
	if c.closed {
		c.stateMu.Unlock()
		return ErrClientClosed
	}
	old := c.conn
	c.stateMu.Unlock()
	_ = old.Close()
	conn, codec, err := c.dialNegotiated()
	if err != nil {
		return err
	}
	c.resetConnLocked(conn, codec)
	return nil
}

// Addr returns the site address this client dials.
func (c *SiteClient) Addr() string { return c.addr }

// SiteID returns the site identifier learned from the first reply, if any.
func (c *SiteClient) SiteID() string {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.siteID
}

// NegotiatedCodec returns the name of the codec the live connection
// speaks: the handshake's pick, or "json" for a plain v1 connection.
func (c *SiteClient) NegotiatedCodec() string {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.codecName
}

// SetOnSettled installs the settlement observer. The callback runs on the
// client's read goroutine, so it must not block on another exchange with
// the same client. It survives redials.
func (c *SiteClient) SetOnSettled(fn func(Envelope)) {
	c.stateMu.Lock()
	c.onSettled = fn
	c.stateMu.Unlock()
}

func (c *SiteClient) settledFn() func(Envelope) {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.onSettled
}

// SetOnDigest installs the load-digest observer for TypeDigest pushes.
// Like SetOnSettled it runs on the read goroutine, must not block on
// another exchange with this client, and survives redials — though the
// subscription itself does not (see SubscribeDigests).
func (c *SiteClient) SetOnDigest(fn func(Envelope)) {
	c.stateMu.Lock()
	c.onDigest = fn
	c.stateMu.Unlock()
}

func (c *SiteClient) digestFn() func(Envelope) {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.onDigest
}

func (c *SiteClient) setReadErr(err error) {
	c.stateMu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	c.stateMu.Unlock()
}

func (c *SiteClient) takeReadErr() error {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.readErr
}

// readLoop consumes one connection's replies until it dies. It owns the
// conn and replies channel it was started with, so a Redial swapping the
// client's fields cannot race it.
func (c *SiteClient) readLoop(conn net.Conn, replies chan Envelope, codec Codec) {
	br := bufio.NewReaderSize(conn, 64*1024)
	limit := maxFrameBytes(c.cfg.MaxFrameBytes)
	var scratch []byte
	var env Envelope
	for {
		if err := codec.Read(br, limit, &scratch, &env); err != nil {
			if errors.Is(err, ErrTooLong) {
				// The oversized frame was drained whole, so the stream is
				// still framed: answer the in-flight exchange with the
				// protocol error and keep the connection alive.
				replies <- Envelope{Type: TypeError, Reason: err.Error()}
				continue
			}
			// A frame that does not decode (ProtocolError) poisons the
			// connection from the client's side: replies are matched to
			// requests by order, so a dropped frame would desynchronize
			// every later exchange.
			if !errors.Is(err, io.EOF) {
				c.setReadErr(err)
			}
			break
		}
		if env.SiteID != "" {
			c.stateMu.Lock()
			c.siteID = env.SiteID
			c.stateMu.Unlock()
		}
		if env.Type == TypeSettled {
			if fn := c.settledFn(); fn != nil {
				fn(env)
			}
			continue
		}
		if env.Type == TypeDigest {
			// Digest pushes are unsolicited, like settlements: routing them
			// into replies would desynchronize request/reply matching.
			if fn := c.digestFn(); fn != nil {
				fn(env)
			}
			continue
		}
		replies <- env
	}
	close(replies)
}

// roundTrip sends one envelope and waits for the next non-push reply,
// bounded by the request timeout. On timeout the connection is poisoned
// (closed) because a late reply would desynchronize subsequent exchanges.
func (c *SiteClient) roundTrip(e Envelope) (Envelope, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stateMu.Lock()
	closed, conn := c.closed, c.conn
	c.stateMu.Unlock()
	if closed {
		return Envelope{}, ErrClientClosed
	}
	timeout := c.cfg.requestTimeout()
	if timeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	buf, err := c.codec.Append(c.enc[:0], &e)
	if cap(buf) <= maxPooledEncBuf {
		c.enc = buf
	}
	if err != nil {
		return Envelope{}, err
	}
	if _, err := c.bw.Write(buf); err != nil {
		return Envelope{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return Envelope{}, err
	}
	var timeoutC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	select {
	case reply, ok := <-c.replies:
		if !ok {
			if rerr := c.takeReadErr(); rerr != nil {
				return Envelope{}, fmt.Errorf("%w: %v", ErrConnClosed, rerr)
			}
			return Envelope{}, ErrConnClosed
		}
		return reply, nil
	case <-timeoutC:
		_ = conn.Close()
		return Envelope{}, fmt.Errorf("%w after %v", ErrTimeout, timeout)
	}
}

// Propose submits a sealed bid and returns the server bid, or ok=false on
// rejection.
func (c *SiteClient) Propose(b market.Bid) (market.ServerBid, bool, error) {
	sb, ok, _, err := c.ProposeDetail(b)
	return sb, ok, err
}

// ProposeDetail is Propose plus the rejection reason, which overload-aware
// callers (the broker) use to tell a shed — a priced refusal from the
// site's overload valve, IsShedReason(reason) — from an admission-policy
// decline. The reason is empty when the site accepts.
func (c *SiteClient) ProposeDetail(b market.Bid) (market.ServerBid, bool, string, error) {
	reply, err := c.roundTrip(BidEnvelope(b))
	if err != nil {
		return market.ServerBid{}, false, "", err
	}
	switch reply.Type {
	case TypeServerBid:
		sb, err := reply.ServerBid()
		return sb, err == nil, "", err
	case TypeReject:
		return market.ServerBid{}, false, reply.Reason, nil
	case TypeError:
		return market.ServerBid{}, false, "", fmt.Errorf("wire: site error: %s", reply.Reason)
	default:
		return market.ServerBid{}, false, "", fmt.Errorf("wire: unexpected reply %q", reply.Type)
	}
}

// Award commits the task to this site under a previously proposed server
// bid and returns the contract terms, or ok=false if the site's mix changed
// and it now rejects. Awards are idempotent on the server, so a transiently
// failed award is safe to retry on the same site.
func (c *SiteClient) Award(b market.Bid, sb market.ServerBid) (market.ServerBid, bool, error) {
	terms, ok, _, err := c.AwardDetail(b, sb)
	return terms, ok, err
}

// AwardDetail is Award plus the rejection reason, so overload-aware callers
// can tell a shed at award time (the book filled between quote and award)
// from an ordinary decline. The reason is empty when the award lands.
func (c *SiteClient) AwardDetail(b market.Bid, sb market.ServerBid) (market.ServerBid, bool, string, error) {
	reply, err := c.roundTrip(AwardEnvelope(b, sb))
	if err != nil {
		return market.ServerBid{}, false, "", err
	}
	switch reply.Type {
	case TypeContract:
		terms, err := reply.ServerBid()
		return terms, err == nil, "", err
	case TypeStatus:
		// A retried award can race its own settlement: the site already
		// delivered (or defaulted) the contract and reports the closed
		// state instead of opening it twice. Delivery is a placed contract
		// at the final price; a default is a decline.
		if reply.ContractState == ContractSettled {
			return market.ServerBid{SiteID: reply.SiteID, TaskID: reply.TaskID,
				ExpectedCompletion: reply.CompletedAt, ExpectedPrice: reply.FinalPrice}, true, "", nil
		}
		return market.ServerBid{}, false, "", nil
	case TypeReject:
		return market.ServerBid{}, false, reply.Reason, nil
	case TypeError:
		return market.ServerBid{}, false, "", fmt.Errorf("wire: site error: %s", reply.Reason)
	default:
		return market.ServerBid{}, false, "", fmt.Errorf("wire: unexpected reply %q", reply.Type)
	}
}

// ContractStatus is a queried contract's state as reported by the site.
type ContractStatus struct {
	TaskID task.ID
	State  string // one of the Contract* constants
	// CompletedAt/FinalPrice are set for settled and defaulted contracts;
	// ExpectedCompletion/ExpectedPrice echo the standing terms of open ones.
	CompletedAt        float64
	FinalPrice         float64
	ExpectedCompletion float64
	ExpectedPrice      float64
}

// Query asks the site for a contract's state. Querying an open contract
// re-subscribes this client's connection to the contract's settlement push,
// so a client that redialed after a site restart calls Query for each
// outstanding contract to keep its callbacks alive (DESIGN.md §10).
func (c *SiteClient) Query(id task.ID) (ContractStatus, error) {
	reply, err := c.roundTrip(Envelope{Type: TypeQuery, TaskID: id})
	if err != nil {
		return ContractStatus{}, err
	}
	switch reply.Type {
	case TypeStatus:
		return ContractStatus{
			TaskID:             reply.TaskID,
			State:              reply.ContractState,
			CompletedAt:        reply.CompletedAt,
			FinalPrice:         reply.FinalPrice,
			ExpectedCompletion: reply.ExpectedCompletion,
			ExpectedPrice:      reply.ExpectedPrice,
		}, nil
	case TypeError:
		return ContractStatus{}, fmt.Errorf("wire: site error: %s", reply.Reason)
	default:
		return ContractStatus{}, fmt.Errorf("wire: unexpected reply %q", reply.Type)
	}
}

// ErrDigestUnsupported reports a site that declined a digest subscription
// — a v1 site, or one predating the digest protocol. The connection is
// healthy; the subscriber simply gets no digests from it.
var ErrDigestUnsupported = errors.New("wire: site does not support digest subscriptions")

// SubscribeDigests asks the site to push TypeDigest envelopes to this
// connection roughly every interval (the site jitters each gap over
// [T/2, 3T/2)). Pushes land on the OnDigest callback. The subscription is
// per connection: a Redial silently drops it, so subscribers re-subscribe
// when digests stop arriving. A site that does not speak the digest
// protocol returns ErrDigestUnsupported.
func (c *SiteClient) SubscribeDigests(interval time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("wire: digest interval %v must be > 0", interval)
	}
	ms := float64(interval) / float64(time.Millisecond)
	reply, err := c.roundTrip(Envelope{Type: TypeDigestSub, Interval: ms})
	if err != nil {
		return err
	}
	switch reply.Type {
	case TypeDigestSub:
		return nil
	case TypeError:
		return fmt.Errorf("%w: %s", ErrDigestUnsupported, reply.Reason)
	default:
		return fmt.Errorf("wire: unexpected digest subscription reply %q", reply.Type)
	}
}

// transientErr reports whether err looks like a connection-level failure
// worth a bounded retry after Redial, as opposed to a protocol error.
func transientErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrTimeout) || errors.Is(err, ErrConnClosed) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, syscall.ECONNREFUSED) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Negotiator fans bids out to several network sites and picks the best
// offer under a selector, completing the Figure 1 exchange end to end.
// A site that errors drops out of the exchange after bounded retries; the
// remaining sites' offers still compete.
type Negotiator struct {
	Sites    []*SiteClient
	Selector market.Selector
	// Retries is the number of extra attempts per site call after a
	// transient failure, each preceded by a Redial. Zero means the
	// default (2); negative disables retries.
	Retries int
	// Backoff is the delay before the first retry, doubling each attempt.
	// Zero means the default (50ms).
	Backoff time.Duration
	// QuoteWorkers bounds the number of sites quoted concurrently during
	// an exchange. Zero means the default (8); negative means one. The
	// bound keeps a federation-wide exchange from opening an unbounded
	// goroutine (and socket) burst per bid.
	QuoteWorkers int
	// DeadlineBudget mints a deadline budget on each bid that carries
	// none: the budget rides the envelope as deadline_ms, shrinks at each
	// hop (a relaying broker re-stamps it with its queueing and retry
	// delay), and a site refuses to quote work whose budget is already
	// spent. Zero leaves bids unbudgeted (DESIGN.md §15).
	DeadlineBudget time.Duration
	// Logger observes per-site failures as structured JSON lines; nil
	// silences them.
	Logger *obs.Logger
	// Metrics receives negotiation instrumentation (retries, dropouts,
	// outcome counters) under role="client"; nil disables it.
	Metrics *obs.Registry
	// Tracer receives task-lifecycle trace events (submit, bid, contract,
	// reject); nil disables them.
	Tracer *obs.Tracer

	obsOnce sync.Once
	eo      exchangeObs
}

const (
	defaultRetries      = 2
	defaultBackoff      = 50 * time.Millisecond
	defaultQuoteWorkers = 8
)

func defaultedRetries(n int) int {
	if n == 0 {
		return defaultRetries
	}
	if n < 0 {
		return 0
	}
	return n
}

func defaultedBackoff(d time.Duration) time.Duration {
	if d <= 0 {
		return defaultBackoff
	}
	return d
}

func defaultedQuoteWorkers(n int) int {
	if n == 0 {
		return defaultQuoteWorkers
	}
	if n < 1 {
		return 1
	}
	return n
}

func (n *Negotiator) retries() int           { return defaultedRetries(n.Retries) }
func (n *Negotiator) backoff() time.Duration { return defaultedBackoff(n.Backoff) }
func (n *Negotiator) quoteWorkers() int      { return defaultedQuoteWorkers(n.QuoteWorkers) }

// exchangeObs lazily binds the negotiator's instruments so plain literal
// construction (the common pattern in tests and examples) keeps working.
func (n *Negotiator) exchangeObs() exchangeObs {
	n.obsOnce.Do(func() {
		n.eo = newExchangeObs(n.Metrics, n.Logger, n.Tracer, "client")
	})
	return n.eo
}

// jitterBetween draws a duration uniformly from [lo, hi). It is the shared
// de-synchronizer: retry backoff and the sites' digest push cadence both
// draw from it, so neither a redialing herd nor a 50-site fleet ever acts
// in lockstep.
func jitterBetween(lo, hi time.Duration) time.Duration {
	if hi <= lo+1 {
		return lo
	}
	return lo + time.Duration(rand.Int63n(int64(hi-lo)))
}

// retryDelay is the exponential backoff for the given attempt, jittered
// uniformly over [d/2, d). Without jitter, every client that lost the same
// site retries in lockstep and a restarting site takes the whole herd's
// redials at once.
func retryDelay(backoff time.Duration, attempt int) time.Duration {
	d := backoff << attempt
	if d <= 1 {
		return d
	}
	return jitterBetween(d/2, d)
}

// digestJitter spreads one digest push interval uniformly over
// [T/2, 3T/2), so sites subscribed at the same instant drift apart instead
// of thundering the broker on a synchronized tick (DESIGN.md §16).
func digestJitter(d time.Duration) time.Duration {
	return jitterBetween(d/2, d+d/2)
}

// callWithRetry runs one site exchange f, retrying a transient failure at
// most retries times, each after a jittered exponential backoff and a
// redial of sc. gate, when non-nil, must grant each retry (attempt counts
// from 0); a refusal ends the call with the failure in hand. f leaves its
// results in the caller's variables and returns the exchange's error.
func callWithRetry(sc *SiteClient, retries int, backoff time.Duration, eo exchangeObs,
	gate func(attempt int) bool, f func() error) error {
	for attempt := 0; ; attempt++ {
		err := f()
		if err == nil || attempt >= retries || !transientErr(err) {
			return err
		}
		if gate != nil && !gate(attempt) {
			return err
		}
		eo.retries.Inc()
		time.Sleep(retryDelay(backoff, attempt))
		// A failed redial leaves the connection dead; the next attempt
		// fails fast and the loop either retries or gives up.
		_ = sc.Redial()
	}
}

// proposeResult is one site's answer to a proposal: an offer (ok), a
// refusal with its reason, or the error that drops the site.
type proposeResult struct {
	sb     market.ServerBid
	ok     bool
	reason string
	err    error
}

// proposeEach quotes bid at every site through propose, at most workers at
// a time (so hundred-site federations do not burst a goroutine and socket
// per site for every bid), and tallies the answers: a site whose call
// failed drops out of the exchange, an acceptance is an offer, and a
// shed-marked refusal counts toward sheds. The error is non-nil only when
// every site failed, and carries the first failure.
func proposeEach[S any](sites []S, workers int, eo exchangeObs, bid market.Bid,
	addr func(S) string, propose func(S) proposeResult) (offers []market.ServerBid, offerSites []S, sheds int, err error) {
	var firstErr error
	errored := 0
	for i, r := range sweep.Map(sites, workers, propose) {
		switch {
		case r.err != nil:
			errored++
			if firstErr == nil {
				firstErr = fmt.Errorf("site %s: %w", addr(sites[i]), r.err)
			}
			eo.dropouts.Inc()
			eo.log.Warn("site dropped out of exchange",
				"addr", addr(sites[i]), "task", bid.TaskID, "req", bid.ReqID, "err", r.err.Error())
		case r.ok:
			offers = append(offers, r.sb)
			offerSites = append(offerSites, sites[i])
		case IsShedReason(r.reason):
			sheds++
		}
	}
	if errored > 0 && errored == len(sites) {
		return nil, nil, sheds, fmt.Errorf("wire: every site failed: %w", firstErr)
	}
	return offers, offerSites, sheds, nil
}

// Negotiate runs the full exchange for one bid. It returns the winning
// contract terms, or ok=false if every reachable site rejected. An error
// is returned only when no site could be reached at all.
//
// If the bid carries no request ID, one is minted here — the start of the
// task's cross-process lifecycle trace.
func (n *Negotiator) Negotiate(b market.Bid) (market.ServerBid, bool, error) {
	sel := n.Selector
	if sel == nil {
		sel = market.BestYield{}
	}
	if b.ReqID == "" {
		b.ReqID = obs.NewRequestID()
	}
	if n.DeadlineBudget > 0 && b.Deadline == 0 {
		b.Deadline = float64(n.DeadlineBudget) / float64(time.Millisecond)
	}
	eo := n.exchangeObs()
	eo.trace(obs.TraceEvent{Stage: obs.StageSubmit, Task: uint64(b.TaskID), Req: b.ReqID, Value: b.Value,
		Cohort: b.Cohort, Client: b.Client})
	offers, offerSites, _, err := proposeEach(n.Sites, n.quoteWorkers(), eo, b, (*SiteClient).Addr,
		func(sc *SiteClient) (r proposeResult) {
			r.err = callWithRetry(sc, n.retries(), n.backoff(), eo, nil, func() (err error) {
				r.sb, r.ok, r.reason, err = sc.ProposeDetail(b)
				return err
			})
			return r
		})
	if err != nil {
		eo.failed.Inc()
		eo.trace(obs.TraceEvent{Stage: obs.StageReject, Task: uint64(b.TaskID), Req: b.ReqID, Detail: err.Error(),
			Cohort: b.Cohort, Client: b.Client})
		return market.ServerBid{}, false, err
	}
	for len(offers) > 0 {
		i := sel.Select(b, offers)
		if i < 0 {
			break
		}
		eo.trace(obs.TraceEvent{Stage: obs.StageBid, Task: uint64(b.TaskID), Req: b.ReqID,
			Site: offers[i].SiteID, Value: offers[i].ExpectedPrice, Cohort: b.Cohort, Client: b.Client})
		var terms market.ServerBid
		var ok bool
		err := callWithRetry(offerSites[i], n.retries(), n.backoff(), eo, nil, func() (err error) {
			terms, ok, err = offerSites[i].Award(b, offers[i])
			return err
		})
		if err == nil && ok {
			eo.placed.Inc()
			eo.trace(obs.TraceEvent{Stage: obs.StageContract, Task: uint64(b.TaskID), Req: b.ReqID,
				Site: terms.SiteID, Value: terms.ExpectedPrice, Cohort: b.Cohort, Client: b.Client})
			return terms, true, nil
		}
		if err != nil {
			eo.log.Warn("site failed award", "addr", offerSites[i].Addr(), "task", b.TaskID, "req", b.ReqID, "err", err.Error())
		}
		offers = append(offers[:i], offers[i+1:]...)
		offerSites = append(offerSites[:i], offerSites[i+1:]...)
	}
	eo.declined.Inc()
	eo.trace(obs.TraceEvent{Stage: obs.StageReject, Task: uint64(b.TaskID), Req: b.ReqID, Detail: "no site accepted",
		Cohort: b.Cohort, Client: b.Client})
	return market.ServerBid{}, false, nil
}
