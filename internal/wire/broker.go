package wire

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/task"
)

// BrokerConfig parameterizes a network broker.
type BrokerConfig struct {
	// SiteAddrs are the task-service sites the broker negotiates with.
	SiteAddrs []string
	// Selector ranks server bids on the clients' behalf; nil is BestYield.
	Selector market.Selector
	// RequestTimeout bounds each site exchange (see ClientConfig).
	RequestTimeout time.Duration
	// Retries / Backoff bound per-site retry on transient failures, with
	// Negotiator semantics (zero means default, negative disables).
	Retries int
	Backoff time.Duration
	// QuoteWorkers bounds concurrent site quoting per exchange: zero means
	// the default (8), negative means one.
	QuoteWorkers int
	// IdleTimeout / WriteTimeout govern the broker's client-facing
	// connections, with ServerConfig semantics.
	IdleTimeout  time.Duration
	WriteTimeout time.Duration
	// MaxFrameBytes caps one inbound protocol frame, on the client-facing
	// connections and the site connections alike; zero means the default
	// (1 MiB).
	MaxFrameBytes int
	// SiteCodec names the codec to request when dialing each site, with
	// ClientConfig.Codec semantics: empty means binary.
	SiteCodec string
	// Route selects the quote fan-out policy: RouteFanout (the zero value)
	// quotes every breaker-admitted site, RouteTopK quotes only the TopK
	// sites ranked by their load digests (DESIGN.md §16).
	Route string
	// TopK is the candidate-set size under RouteTopK; zero means the
	// default (4).
	TopK int
	// DigestInterval is the cadence the broker asks sites to push load
	// digests at; zero means the default (250ms). It only matters under
	// RouteTopK.
	DigestInterval time.Duration
	// CircuitFailures is the consecutive-failure streak that trips a
	// site's circuit breaker open; zero means the default (3), negative
	// disables the breakers entirely (DESIGN.md §15).
	CircuitFailures int
	// CircuitCooldown is how long an open breaker waits before admitting
	// a half-open probe; zero means the default (1s).
	CircuitCooldown time.Duration
	// RetryBudget is the retry credit a site earns per successful
	// exchange (token bucket, capped at 8). Zero means the default
	// (0.25 — one retry per four successes, steady-state); negative
	// restores unlimited blind retry.
	RetryBudget float64
	// HedgeDelay tunes hedged quoting: zero means adaptive (the 0.9
	// latency quantile per site, clamped to [5ms, 1s]), positive is a
	// fixed delay, negative disables hedging.
	HedgeDelay time.Duration
	// ParkedSettlements bounds the ring of settlements parked for
	// disconnected owners, recoverable via query; zero means the default
	// (64), negative disables parking.
	ParkedSettlements int
	// Logger receives brokering events as structured JSON lines; nil
	// silences them.
	Logger *obs.Logger
	// Metrics receives broker instrumentation under role="broker"; nil
	// disables it.
	Metrics *obs.Registry
	// Tracer receives task-lifecycle trace events as bids, awards, and
	// settlements cross the broker; nil disables them.
	Tracer *obs.Tracer
}

// Routing policies.
const (
	RouteFanout = "fanout"
	RouteTopK   = "topk"

	defaultTopK = 4
)

func (c BrokerConfig) retries() int           { return defaultedRetries(c.Retries) }
func (c BrokerConfig) backoff() time.Duration { return defaultedBackoff(c.Backoff) }

func (c BrokerConfig) quoteWorkers() int {
	if c.QuoteWorkers == 0 {
		return defaultQuoteWorkers
	}
	return max(c.QuoteWorkers, 1)
}

func (c BrokerConfig) topK() int {
	if c.TopK <= 0 {
		return defaultTopK
	}
	return c.TopK
}

func (c BrokerConfig) digestInterval() time.Duration {
	if c.DigestInterval <= 0 {
		return defaultDigestInterval
	}
	return c.DigestInterval
}

func (c BrokerConfig) topkEnabled() bool { return c.Route == RouteTopK }

// laneConfig is the client configuration for every lane the broker dials —
// site primaries and hedge lanes. The dial (including the codec handshake)
// is bounded by the same budget as a request: a redial against a wedged
// host must fail within the request timeout, or the lane's serialized
// exchanges stall faster than its breaker can open.
func (c BrokerConfig) laneConfig() ClientConfig {
	return ClientConfig{
		RequestTimeout: c.RequestTimeout,
		DialTimeout:    c.RequestTimeout,
		MaxFrameBytes:  c.MaxFrameBytes,
		Codec:          c.SiteCodec,
	}
}

// defaultParkedSettlements bounds the parked-settlement ring when the
// config leaves it zero.
const defaultParkedSettlements = 64

func (c BrokerConfig) parkedCap() int {
	if c.ParkedSettlements == 0 {
		return defaultParkedSettlements
	}
	if c.ParkedSettlements < 0 {
		return 0
	}
	return c.ParkedSettlements
}

// maxQuotes bounds the quotes the broker remembers: a quote still standing
// when maxQuotes newer ones have been issued is forgotten. Without the
// bound, every bid whose client never awards — it disconnected, or it
// took another offer — would stay forever.
const maxQuotes = 1024

// brokerState is where a brokered task stands on the broker's book.
type brokerState uint8

const (
	// brokerQuoted: a site's quote won the bid and stands for the award.
	brokerQuoted brokerState = iota
	// brokerAwarded: the award left for the quoting site; the record
	// routes the eventual settlement to its owner.
	brokerAwarded
	// brokerSettled: the settlement arrived and the record left the book;
	// an award reply still in flight sees this and records nothing.
	brokerSettled
)

// brokered is the broker's one record of a task it brokers.
type brokered struct {
	id    task.ID
	state brokerState
	// site is the quoting site while quoted and the holder once the site
	// acked the award; nil while the award is in flight.
	site  *brokerSite
	owner *serverConn      // client the settlement goes to; nil after a disconnect
	terms market.ServerBid // contract terms once the holder is known, for lateness
}

// BrokerServer is Figure 1's broker as a standalone process: clients speak
// the ordinary bid/award protocol to it, and it coordinates the fan-out,
// selection, and award against the site servers, relaying settlements back
// to the client that owns each task. A site that errors drops out of the
// affected exchange; the broker keeps serving with the sites that answer.
type BrokerServer struct {
	cfg   BrokerConfig
	ep    *endpoint
	sites []*brokerSite
	eo    exchangeObs
	m     brokerMetrics

	mu        sync.Mutex
	book      map[task.ID]*brokered
	quotes    [maxQuotes]*brokered // the latest quotes, a ring in issue order
	nextQuote int                  // ring slot the next quote takes, evicting its occupant
	parked    []Envelope           // settlements held for disconnected owners (bounded ring)

	stop chan struct{} // closed by Close; stops the digest loop

	// Stats, guarded by mu.
	Negotiated int
	Placed     int
	Declined   int
}

// brokerSite is one site the broker federates: the primary connection,
// the per-site health machinery (circuit breaker, retry budget, latency
// window), and a lazily dialed second connection that carries hedged
// quotes — the primary serializes its exchanges, so a hedge racing the
// primary needs its own lane.
type brokerSite struct {
	addr    string
	primary *SiteClient
	health  *siteHealth

	hedgeMu sync.Mutex
	hedge   *SiteClient

	// Digest table slot (DESIGN.md §16): the last load digest the site
	// pushed, when it arrived, and the subscription bookkeeping that keeps
	// the pushes flowing across reconnects.
	digestMu    sync.Mutex
	digest      Envelope
	digestAt    time.Time
	inflight    float64 // per-proc backlog awarded since the last push (sim units)
	subInFlight bool
	nextSubAt   time.Time
	mDigestAge  *obs.Gauge
}

// hedgeLane returns the site's hedge connection, dialing it on first use.
func (bs *brokerSite) hedgeLane(cfg BrokerConfig) (*SiteClient, error) {
	bs.hedgeMu.Lock()
	defer bs.hedgeMu.Unlock()
	if bs.hedge != nil {
		return bs.hedge, nil
	}
	sc, err := DialConfig(bs.addr, cfg.laneConfig())
	if err != nil {
		return nil, err
	}
	bs.hedge = sc
	return sc, nil
}

func (bs *brokerSite) closeLanes() {
	_ = bs.primary.Close()
	bs.hedgeMu.Lock()
	if bs.hedge != nil {
		_ = bs.hedge.Close()
	}
	bs.hedgeMu.Unlock()
}

// brokerMetrics are the broker's own instruments, beyond the shared
// exchange set and the endpoint's connection set.
type brokerMetrics struct {
	relayed   *obs.Counter
	relayLost *obs.Counter
	lateness  *obs.Histogram

	// Fleet-resilience instruments (DESIGN.md §15).
	circuitState       *obs.GaugeVec
	circuitTransitions *obs.CounterVec
	hedges             *obs.CounterVec
	retryExhausted     *obs.CounterVec
	parked             *obs.Gauge
	parkedEvicted      *obs.Counter
	parkedRecovered    *obs.Counter
	deadlineExpired    *obs.Counter
	defaultReconciled  *obs.CounterVec

	// Digest routing (DESIGN.md §16).
	digestAge       *obs.GaugeVec
	routeCandidates *obs.Histogram
	routeFallback   *obs.Counter
	routed          *obs.CounterVec
}

func newBrokerMetrics(reg *obs.Registry) brokerMetrics {
	settles := reg.Counter("market_settlements_total", "Settlement deliveries.", "role", "result")
	return brokerMetrics{
		relayed:   settles.With("broker", "relayed"),
		relayLost: settles.With("broker", "undeliverable"),
		lateness:  reg.Histogram("market_settlement_lateness", "Completion time minus contracted completion, in simulation units.", latenessBuckets, "site").With("broker"),

		circuitState:       reg.Gauge("broker_circuit_state", "Per-site circuit breaker state: 0 closed, 1 half-open, 2 open.", "site"),
		circuitTransitions: reg.Counter("broker_circuit_transitions_total", "Circuit breaker transitions, by destination state.", "site", "to"),
		hedges:             reg.Counter("broker_hedge_total", "Hedged quote attempts launched past the adaptive delay.", "site"),
		retryExhausted:     reg.Counter("broker_site_retry_exhausted_total", "Retries refused because a site's retry budget was spent.", "site"),
		parked:             reg.Gauge("broker_parked_settlements", "Settlements currently parked for disconnected owners.").With(),
		parkedEvicted:      reg.Counter("broker_parked_evicted_total", "Parked settlements evicted when the ring overflowed.").With(),
		parkedRecovered:    reg.Counter("broker_parked_recovered_total", "Parked settlements recovered by a reconnecting owner's query.").With(),
		deadlineExpired:    reg.Counter("wire_deadline_expired_total", "Bids refused because their deadline budget was already spent on arrival.", "site").With("broker"),
		defaultReconciled:  reg.Counter("broker_default_reconciled_total", "Open contracts declared defaulted because the holder site lost them (e.g. abandoned on a severed connection).", "site"),

		digestAge:       reg.Gauge("broker_digest_age_seconds", "Age of each site's last load digest; absent until the first digest arrives.", "site"),
		routeCandidates: reg.Histogram("broker_route_candidates", "Candidate sites quoted per bid after routing.", []float64{0, 1, 2, 4, 8, 16, 32, 64}).With(),
		routeFallback:   reg.Counter("broker_route_fallback_total", "Bids routed by full fan-out because fewer than k digests were fresh.").With(),
		routed:          reg.Counter("broker_routed_total", "Bids quoted to each site after routing.", "site"),
	}
}

// NewBrokerServer connects to every site and starts listening on addr.
func NewBrokerServer(addr string, cfg BrokerConfig) (*BrokerServer, error) {
	if len(cfg.SiteAddrs) == 0 {
		return nil, fmt.Errorf("wire: broker needs at least one site")
	}
	if cfg.Selector == nil {
		cfg.Selector = market.BestYield{}
	}
	b := &BrokerServer{
		cfg:  cfg,
		eo:   newExchangeObs(cfg.Metrics, cfg.Logger.With("role", "broker"), cfg.Tracer, "broker"),
		m:    newBrokerMetrics(cfg.Metrics),
		book: make(map[task.ID]*brokered),
		stop: make(chan struct{}),
	}
	for _, sa := range cfg.SiteAddrs {
		sc, err := DialConfig(sa, cfg.laneConfig())
		if err != nil {
			b.closeSites()
			return nil, fmt.Errorf("wire: broker dialing site %s: %w", sa, err)
		}
		sc.SetOnSettled(b.relaySettlement)
		bs := &brokerSite{
			addr:    sa,
			primary: sc,
			health:  newSiteHealth(sa, cfg.CircuitFailures, cfg.CircuitCooldown, cfg.RetryBudget, &b.m),
		}
		bs.mDigestAge = b.m.digestAge.With(sa)
		if cfg.topkEnabled() {
			sc.SetOnDigest(bs.noteDigest)
		}
		b.sites = append(b.sites, bs)
	}
	ep, err := listen(addr, endpointConfig{
		label:         "broker",
		idleTimeout:   cfg.IdleTimeout,
		writeTimeout:  cfg.WriteTimeout,
		maxFrameBytes: cfg.MaxFrameBytes,
		metrics:       cfg.Metrics,
		log:           b.eo.log,
	})
	if err != nil {
		b.closeSites()
		return nil, err
	}
	b.ep = ep
	if cfg.topkEnabled() {
		ep.spawn(b.digestLoop)
	}
	ep.start(b.handle, b.gone)
	return b, nil
}

// Addr returns the broker's listen address.
func (b *BrokerServer) Addr() string { return b.ep.ln.Addr().String() }

// Close shuts the broker down, closing the client listener, live client
// connections, and the site connections. Safe to call more than once.
func (b *BrokerServer) Close() error {
	first, err := b.ep.close(func() { close(b.stop) })
	if !first {
		return nil
	}
	b.closeSites()
	return err
}

func (b *BrokerServer) closeSites() {
	for _, bs := range b.sites {
		bs.closeLanes()
	}
}

// handle answers one request on a client connection.
func (b *BrokerServer) handle(sc *serverConn, env Envelope) Envelope {
	switch env.Type {
	case TypeBid:
		return b.handleBid(env)
	case TypeAward:
		return b.handleAward(env, sc)
	case TypeQuery:
		return b.handleQuery(env, sc)
	}
	return Envelope{Type: TypeError, Reason: fmt.Sprintf("unexpected message %q", env.Type)}
}

// gone orphans a disconnected client's awarded contracts: their later
// settlements park until a query recovers them, and each record keeps its
// holder for that query to poll. Standing quotes stay for a client that
// redials before it awards.
func (b *BrokerServer) gone(sc *serverConn) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for id, r := range b.book {
		if r.owner == sc {
			r.owner = nil
			b.eo.log.Info("task orphaned: client disconnected before settlement", "task", id)
		}
	}
}

// bookQuoteLocked books a standing quote for id at bs, replacing any earlier
// record of the task, and evicts the quote that held its ring slot if that
// one still stands. Callers must hold b.mu.
func (b *BrokerServer) bookQuoteLocked(id task.ID, bs *brokerSite) {
	if old := b.quotes[b.nextQuote]; old != nil && old.state == brokerQuoted {
		b.forgetLocked(old)
	}
	r := &brokered{id: id, state: brokerQuoted, site: bs}
	b.book[id] = r
	b.quotes[b.nextQuote] = r
	b.nextQuote = (b.nextQuote + 1) % maxQuotes
}

// forgetLocked drops r from the book unless a newer record of its task has
// replaced it. Callers must hold b.mu.
func (b *BrokerServer) forgetLocked(r *brokered) {
	if b.book[r.id] == r {
		delete(b.book, r.id)
	}
}

// awardedLocked returns id's awarded record, opening one (in place of any
// quote) when a site's query answer tells the broker of the contract.
// Callers must hold b.mu.
func (b *BrokerServer) awardedLocked(id task.ID) *brokered {
	r := b.book[id]
	if r == nil || r.state != brokerAwarded {
		r = &brokered{id: id, state: brokerAwarded}
		b.book[id] = r
	}
	return r
}

// handleBid fans the bid out to the sites whose circuit breakers admit it
// and answers with the selected server bid, remembering the winning site
// for the award. Each site call is hedged past the adaptive delay and
// retried under the site's retry budget; a bid whose deadline budget is
// already spent is refused locally without touching any site. Sites that
// fail the exchange drop out; only if every attempted site fails does the
// client get an error instead of a reject.
func (b *BrokerServer) handleBid(env Envelope) Envelope {
	recv := time.Now()
	bid, err := env.Bid()
	if err != nil {
		return Envelope{Type: TypeError, Reason: err.Error()}
	}
	b.mu.Lock()
	b.Negotiated++
	b.mu.Unlock()
	b.eo.trace(obs.TraceEvent{Stage: obs.StageSubmit, Task: uint64(bid.TaskID), Req: bid.ReqID, Value: bid.Value})

	if DeadlineSpent(bid.Deadline) {
		b.m.deadlineExpired.Inc()
		b.mu.Lock()
		b.Declined++
		b.mu.Unlock()
		b.eo.declined.Inc()
		b.eo.trace(obs.TraceEvent{Stage: obs.StageReject, Task: uint64(bid.TaskID), Req: bid.ReqID, Detail: "deadline budget spent"})
		return Envelope{Type: TypeReject, TaskID: bid.TaskID, SiteID: "broker",
			Reason: shedReasonPrefix + "deadline budget spent"}
	}

	offers, offerCands, sheds, err := b.proposeFleet(bid, recv)
	if err != nil {
		b.eo.failed.Inc()
		b.eo.trace(obs.TraceEvent{Stage: obs.StageReject, Task: uint64(bid.TaskID), Req: bid.ReqID, Detail: err.Error()})
		return Envelope{Type: TypeError, TaskID: bid.TaskID, Reason: err.Error()}
	}
	i := -1
	if len(offers) > 0 {
		i = b.cfg.Selector.Select(bid, offers)
	}
	if i < 0 {
		b.mu.Lock()
		b.Declined++
		b.mu.Unlock()
		b.eo.declined.Inc()
		reason := "no site accepted"
		if len(offers) == 0 && sheds > 0 {
			// Every refusal was an overload shed; keep the shed marker on
			// the relayed reject so clients account it as shed, not policy.
			reason = fmt.Sprintf("%sno site accepted (%d shed)", shedReasonPrefix, sheds)
		}
		b.eo.trace(obs.TraceEvent{Stage: obs.StageReject, Task: uint64(bid.TaskID), Req: bid.ReqID, Detail: reason})
		return Envelope{Type: TypeReject, TaskID: bid.TaskID, Reason: reason}
	}

	b.mu.Lock()
	b.bookQuoteLocked(bid.TaskID, offerCands[i].bs)
	b.mu.Unlock()
	win := offers[i]
	b.eo.trace(obs.TraceEvent{Stage: obs.StageBid, Task: uint64(bid.TaskID), Req: bid.ReqID,
		Site: win.SiteID, Value: win.ExpectedPrice})
	b.eo.log.Info("selected site", "task", bid.TaskID, "req", bid.ReqID, "site", win.SiteID,
		"expected_completion", win.ExpectedCompletion, "price", win.ExpectedPrice)
	return Envelope{
		Type:               TypeServerBid,
		TaskID:             win.TaskID,
		SiteID:             win.SiteID,
		ExpectedCompletion: win.ExpectedCompletion,
		ExpectedPrice:      win.ExpectedPrice,
	}
}

// handleAward forwards the award to the site selected during the bid and
// registers the client connection for settlement relay. Transient site
// failures are retried under the site's retry budget (awards are
// idempotent on the site).
func (b *BrokerServer) handleAward(env Envelope, owner *serverConn) Envelope {
	bid, err := env.Bid()
	if err != nil {
		return Envelope{Type: TypeError, Reason: err.Error()}
	}
	sb, err := env.ServerBid()
	if err != nil {
		return Envelope{Type: TypeError, Reason: err.Error()}
	}

	// Register the settlement route before the award leaves: the site starts
	// the task the moment it accepts, so a short run's settlement push can
	// race the award reply back through relaySettlement. A settlement that
	// finds no owner is parked, so the owner should be in place first.
	b.mu.Lock()
	r := b.book[bid.TaskID]
	if r == nil || r.state != brokerQuoted {
		b.mu.Unlock()
		return Envelope{Type: TypeError, TaskID: bid.TaskID, Reason: "award without a standing proposal"}
	}
	site := r.site
	r.state, r.site, r.owner = brokerAwarded, nil, owner
	b.mu.Unlock()

	// The award goes to the chosen site whatever its breaker says — it is
	// the only site holding the quote, and committed work is never shed.
	awardStart := time.Now()
	var terms market.ServerBid
	var ok bool
	err = callWithRetry(site.primary, b.cfg.retries(), b.cfg.backoff(), b.eo, site.health.retryGate(false), func() (err error) {
		terms, ok, err = site.primary.Award(bid, sb)
		return err
	})
	site.health.onResult(err == nil, time.Since(awardStart), false)
	if err != nil || !ok {
		b.mu.Lock()
		b.forgetLocked(r)
		b.Declined++
		b.mu.Unlock()
		if err != nil {
			b.eo.failed.Inc()
			b.eo.trace(obs.TraceEvent{Stage: obs.StageReject, Task: uint64(bid.TaskID), Req: bid.ReqID, Detail: err.Error()})
			return Envelope{Type: TypeError, TaskID: bid.TaskID, Reason: err.Error()}
		}
		b.eo.declined.Inc()
		b.eo.trace(obs.TraceEvent{Stage: obs.StageReject, Task: uint64(bid.TaskID), Req: bid.ReqID,
			Site: sb.SiteID, Detail: "site mix changed since proposal"})
		return Envelope{Type: TypeReject, TaskID: bid.TaskID, Reason: "site mix changed since proposal"}
	}
	if b.cfg.topkEnabled() {
		site.noteRouted(bid.Runtime)
	}
	b.mu.Lock()
	// The settlement may already have been relayed (the record is settled)
	// or the owner gone (its settlement parks either way, so the record is
	// forgotten); otherwise the record learns its holder and terms.
	if r.state == brokerAwarded {
		if r.owner == nil {
			b.forgetLocked(r)
		} else {
			r.site, r.terms = site, terms
		}
	}
	b.Placed++
	b.mu.Unlock()
	b.eo.placed.Inc()
	b.eo.trace(obs.TraceEvent{Stage: obs.StageContract, Task: uint64(bid.TaskID), Req: bid.ReqID,
		Site: terms.SiteID, Value: terms.ExpectedPrice})
	return contractReply(terms)
}

// relaySettlement pushes a site's settlement to the owning client. A
// settlement whose owner has disconnected is parked in a bounded ring
// instead of dropped; a reconnecting client recovers it with a query.
func (b *BrokerServer) relaySettlement(e Envelope) {
	b.mu.Lock()
	var owner *serverConn
	var holder *brokerSite
	var terms market.ServerBid
	if r := b.book[e.TaskID]; r != nil && r.state == brokerAwarded {
		r.state = brokerSettled
		delete(b.book, e.TaskID)
		owner, holder, terms = r.owner, r.site, r.terms
	}
	if owner == nil {
		b.parkLocked(e)
		b.mu.Unlock()
		b.eo.log.Warn("settlement parked: no connected owner", "task", e.TaskID, "req", e.ReqID)
		return
	}
	b.mu.Unlock()
	if holder != nil {
		b.m.lateness.Observe(e.CompletedAt - terms.ExpectedCompletion)
	}
	b.eo.trace(obs.TraceEvent{Stage: obs.StageSettle, Task: uint64(e.TaskID), Req: e.ReqID,
		Site: e.SiteID, Value: e.FinalPrice})
	if err := owner.send(e); err != nil {
		b.m.relayLost.Inc()
		b.eo.log.Warn("settlement relay to client failed", "task", e.TaskID, "err", err.Error())
		return
	}
	b.m.relayed.Inc()
}

// parkLocked holds a settlement whose owner is gone in the bounded parked
// ring, evicting the oldest entry when full. Callers must hold b.mu.
func (b *BrokerServer) parkLocked(e Envelope) {
	capacity := b.cfg.parkedCap()
	if capacity <= 0 {
		b.m.relayLost.Inc()
		return
	}
	b.parked = append(b.parked, e)
	if len(b.parked) > capacity {
		b.parked = append(b.parked[:0], b.parked[1:]...)
		b.m.parkedEvicted.Inc()
		b.m.relayLost.Inc()
	}
	b.m.parked.Set(float64(len(b.parked)))
}

// handleQuery answers a client's contract-state query. A parked settlement
// for the task is recovered (and removed from the ring); an open contract
// re-adopts the querying connection as the settlement owner; otherwise the
// sites are polled — the holding site first when known.
func (b *BrokerServer) handleQuery(env Envelope, sc *serverConn) Envelope {
	id := env.TaskID
	b.mu.Lock()
	for i, p := range b.parked {
		if p.TaskID != id {
			continue
		}
		b.parked = append(b.parked[:i], b.parked[i+1:]...)
		b.m.parked.Set(float64(len(b.parked)))
		b.m.parkedRecovered.Inc()
		b.mu.Unlock()
		b.eo.log.Info("parked settlement recovered", "task", id)
		return Envelope{Type: TypeStatus, TaskID: id, SiteID: p.SiteID,
			ContractState: ContractSettled, CompletedAt: p.CompletedAt, FinalPrice: p.FinalPrice}
	}
	var holder *brokerSite
	r := b.book[id]
	if r != nil && r.state == brokerAwarded {
		holder = r.site
	}
	if holder != nil && r.owner != nil {
		// The contract is live by the broker's book; the querying
		// connection becomes the owner so the eventual settlement push
		// reaches it.
		r.owner = sc
		terms := r.terms
		b.mu.Unlock()
		// Confirm with the holder site: a settlement push that rode a
		// severed connection never reached the broker, leaving the book
		// stale — this query is the recovery path for those contracts.
		// A failed or still-open confirmation keeps the standing answer.
		st, err := holder.primary.Query(id)
		if err == nil && st.State != ContractOpen && st.State != "" {
			// Settled/defaulted: the push rode a severed connection and
			// never arrived. Unknown: the site lost the contract outright
			// (it abandons queued work when its owner connection dies) —
			// the fleet's promise is broken, so the broker declares the
			// default rather than answering "open" forever.
			state := st.State
			if state == ContractUnknown {
				state = ContractDefaulted
				b.m.defaultReconciled.With(holder.addr).Inc()
				b.eo.log.Warn("holder site lost open contract; reconciled as default", "task", id, "site", holder.addr)
			} else {
				b.eo.log.Info("stale open contract reconciled by query", "task", id, "state", state)
			}
			b.mu.Lock()
			b.forgetLocked(r)
			b.mu.Unlock()
			return Envelope{Type: TypeStatus, TaskID: id, SiteID: holder.primary.SiteID(),
				ContractState: state, CompletedAt: st.CompletedAt, FinalPrice: st.FinalPrice}
		}
		return Envelope{Type: TypeStatus, TaskID: id, SiteID: terms.SiteID,
			ContractState: ContractOpen, ExpectedCompletion: terms.ExpectedCompletion, ExpectedPrice: terms.ExpectedPrice}
	}
	b.mu.Unlock()

	sites := b.sites
	if holder != nil {
		sites = []*brokerSite{holder}
	}
	for _, bs := range sites {
		st, err := bs.primary.Query(id)
		if err != nil || st.State == ContractUnknown || st.State == "" {
			continue
		}
		if st.State == ContractOpen {
			b.mu.Lock()
			adopted := b.awardedLocked(id)
			adopted.owner, adopted.site = sc, bs
			adopted.terms = market.ServerBid{TaskID: id, SiteID: bs.primary.SiteID(),
				ExpectedCompletion: st.ExpectedCompletion, ExpectedPrice: st.ExpectedPrice}
			b.mu.Unlock()
		}
		return Envelope{Type: TypeStatus, TaskID: id, SiteID: bs.primary.SiteID(),
			ContractState: st.State, CompletedAt: st.CompletedAt, FinalPrice: st.FinalPrice,
			ExpectedCompletion: st.ExpectedCompletion, ExpectedPrice: st.ExpectedPrice}
	}
	return Envelope{Type: TypeStatus, TaskID: id, SiteID: "broker", ContractState: ContractUnknown}
}

// proposeFleet quotes one bid against the sites the router picks —
// every breaker-admitted site under fan-out, the top-k digest-ranked
// sites under top-k routing — hedging each call past the site's adaptive
// delay. When every breaker is open it falls back to probing all sites —
// quoting nothing forever would starve the fleet even after the sites
// recover. It returns the accepted offers, their candidates, and how many
// refusals were overload sheds; the error is non-nil only when every
// attempted site failed.
func (b *BrokerServer) proposeFleet(bid market.Bid, recv time.Time) ([]market.ServerBid, []routeCand, int, error) {
	cands := b.routeCandidates(bid)
	for _, c := range cands {
		b.m.routed.With(c.bs.addr).Inc()
	}
	return proposeEach(cands, b.cfg.quoteWorkers(), b.eo, bid,
		func(c routeCand) string { return c.bs.addr },
		func(c routeCand) proposeResult { return b.hedgedPropose(c.bs, bid, recv, c.probe) })
}

// hedgedPropose runs one site's proposal with tail-latency hedging: the
// primary lane fires immediately, and if it has not answered within the
// site's hedge delay a second attempt races it on the hedge lane. The
// first success wins; stragglers still report into the site's health.
// Probes never hedge — a half-open breaker grants exactly one exchange.
func (b *BrokerServer) hedgedPropose(bs *brokerSite, bid market.Bid, recv time.Time, probe bool) proposeResult {
	resCh := make(chan proposeResult, 2)
	attempt := func(sc *SiteClient) {
		start := time.Now()
		r := b.budgetedPropose(bs, sc, bid, recv, probe)
		bs.health.onResult(r.err == nil, time.Since(start), probe)
		resCh <- r
	}
	go attempt(bs.primary)
	outstanding := 1

	var timerC <-chan time.Time
	if !probe && b.cfg.HedgeDelay >= 0 {
		d := b.cfg.HedgeDelay
		if d == 0 {
			d = bs.health.hedgeDelay()
		}
		timer := time.NewTimer(d)
		defer timer.Stop()
		timerC = timer.C
	}

	var failed proposeResult
	errored := 0
	for {
		select {
		case r := <-resCh:
			if r.err == nil {
				return r
			}
			errored++
			if failed.err == nil {
				failed = r
			}
			if errored == outstanding {
				return failed
			}
		case <-timerC:
			timerC = nil
			lane, err := bs.hedgeLane(b.cfg)
			if err != nil {
				// No second lane to be had; keep waiting on the primary.
				continue
			}
			bs.health.mHedges.Inc()
			outstanding++
			go attempt(lane)
		}
	}
}

// budgetedPropose is one lane's proposal, retried under the site's retry
// budget. The bid's deadline budget is re-stamped with the broker's
// queueing-and-retry delay before every send, so the site sees what
// actually remains.
func (b *BrokerServer) budgetedPropose(bs *brokerSite, sc *SiteClient, bid market.Bid, recv time.Time, probe bool) (r proposeResult) {
	r.err = callWithRetry(sc, b.cfg.retries(), b.cfg.backoff(), b.eo, bs.health.retryGate(probe), func() (err error) {
		stamped := bid
		if stamped.Deadline != 0 {
			stamped.Deadline = ShrinkDeadline(bid.Deadline, time.Since(recv))
		}
		r.sb, r.ok, r.reason, err = sc.ProposeDetail(stamped)
		return err
	})
	return r
}
