package wire

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/site"
	"repro/internal/task"
)

// ServerConfig parameterizes a network task-service site.
type ServerConfig struct {
	SiteID     string
	Processors int
	Policy     core.Policy
	Admission  admission.Policy
	// DiscountRate feeds the slack quote, as in site.Config.
	DiscountRate float64
	// TimeScale converts one simulation time unit of task runtime into wall
	// clock. Examples use millisecond-scale units so demos finish quickly.
	TimeScale time.Duration
	// IdleTimeout closes a connection that sends no request for this long.
	// Settlement pushes do not count as activity: a client holding open
	// contracts must keep its connection warm or tolerate orphaned
	// settlements. Zero means the default (2m); negative disables it.
	IdleTimeout time.Duration
	// WriteTimeout bounds each reply or settlement write, so a stalled
	// peer errors out instead of wedging settlement. Zero means the
	// default (10s); negative disables it.
	WriteTimeout time.Duration
	// Logger receives serving events as structured JSON lines; nil
	// silences them.
	Logger *obs.Logger
	// Metrics receives the server's instrumentation (see DESIGN.md §8);
	// nil disables it.
	Metrics *obs.Registry
	// Tracer receives task-lifecycle trace events; nil disables them.
	Tracer *obs.Tracer
	// Ledger, when non-nil, books every contract's economic lifecycle
	// (award terms at acceptance, realized yield at settlement); recovery
	// re-seeds it from the journal so a restarted site's ledger still
	// reconciles with its clients' view (DESIGN.md §13).
	Ledger *obs.Ledger

	// DataDir, when non-empty, enables crash-safe contract durability: every
	// contract-state transition is journaled there (see internal/durable and
	// DESIGN.md §10), awards are acknowledged only after the contract record
	// is on disk, and a restarted server replays the journal to resume its
	// open contracts before accepting connections.
	DataDir string
	// Fsync selects the journal's sync policy; the zero value is
	// FsyncAlways. Only meaningful with DataDir set.
	Fsync durable.FsyncPolicy
	// FsyncEvery is the FsyncInterval period; zero means the journal's
	// default (100ms).
	FsyncEvery time.Duration
	// CrashRegime decides what recovery does with contracts whose task was
	// running at the crash: RegimeRequeue (default) restarts them,
	// RegimeDefault settles them as defaulted at the decayed price floor.
	CrashRegime string

	// MaxFrameBytes caps one inbound protocol frame. An oversized frame is
	// answered with a protocol error and logged, and the connection keeps
	// serving; zero means the default (1 MiB).
	MaxFrameBytes int
	// MaxPending caps the pending book's depth (DESIGN.md §15). As the
	// queue approaches the cap the site sheds by value — bids whose
	// expected yield falls below a depth-scaled marginal-yield floor get a
	// fast priced reject carrying that floor — and at the cap every new
	// bid and award is refused. Zero leaves the book unbounded, the
	// pre-resilience behavior.
	MaxPending int
	// MaxInflightBids caps concurrently evaluating bid quotes site-wide;
	// overflow bids are shed immediately without quoting. Zero disables
	// the gate.
	MaxInflightBids int
	// Shards has no effect: the contract book is one book under one lock
	// (DESIGN.md §14). The field remains only because the benchmark harness
	// still sets it, and goes once the benchmark stops setting it.
	Shards int
}

func (c ServerConfig) crashRegime() string {
	if c.CrashRegime == "" {
		return RegimeRequeue
	}
	return c.CrashRegime
}

// Server is a real-time task-service site: the same policy, quoting, and
// admission logic as the simulated site, executing tasks on wall-clock
// timers and serving the Figure 1 protocol over TCP. Scheduling is
// non-preemptive.
//
// The contract book is one book under bookMu, and every quote prices a bid
// against the book's published snapshot. Lock order is always bookMu → mu;
// mu is a leaf guarding only the exported stats. The endpoint's lock
// (connections and the closed flag) is a leaf too.
type Server struct {
	cfg  ServerConfig
	ep   *endpoint
	log  *obs.Logger
	m    serverMetrics
	shed *shedGate

	start time.Time

	bookMu sync.Mutex
	// open holds every open contract. The three indexes below point into it
	// by state: pending holds the unsynced and queued contracts in booking
	// order, running the running ones, and unsynced the ones inside a
	// group-commit window. A record leaves the unsynced index exactly once —
	// accepted by the batch sweep, or closed (refused by its award's
	// rollback, abandoned at shutdown) — so a failed round's rollback can
	// tell from the record whether a later successful round already decided
	// it. All of the book is guarded by bookMu.
	open     map[task.ID]*contract
	pending  []*contract
	running  map[task.ID]*contract
	unsynced map[task.ID]*contract
	// settled retains closed contracts' settlements — compact, without
	// their task or record — for status queries and award idempotency; it
	// is bounded by the contract count, which suits a task service whose
	// journal is similarly append-only.
	settled  map[task.ID]settlement
	syncCond *sync.Cond
	// seq stamps every booked contract with its booking order, so a closing
	// contract is found in pending by binary search.
	seq uint64
	// version counts the book's scheduling-state changes and is stamped into
	// every published snapshot, so an award can validate its optimistic
	// quote against the live counter.
	version uint64
	// snap is the published quote snapshot that lock-free readers price
	// bids against and read the queue depths from.
	snap atomic.Pointer[site.QuoteSnapshot]

	// swept is the durability frontier the last finished batch sweep
	// covered. An award whose journal index is below it knows its
	// bookkeeping is done and skips the post-barrier lock acquisition
	// entirely — the per-round sweep, not the award count, is what pays
	// for post-barrier work.
	swept atomic.Uint64

	// Contract durability (nil j means the server is memory-only).
	j *durable.Journal

	mu      sync.Mutex
	timerWG sync.WaitGroup // in-flight completion callbacks

	// Stats, guarded by mu.
	Accepted  int
	Rejected  int
	Completed int
	Defaulted int // contracts closed without delivery during crash recovery
	Revenue   float64
	Abandoned int // tasks dropped by shutdown or client disconnect
	Shed      int // bids refused by the overload valve (not policy rejects)
}

// contractState is where an open contract stands on the site's book. A
// contract moves unsynced → queued → running, and any state can close.
type contractState uint8

const (
	// stateUnsynced: booked, but the contract's journal record is still
	// inside a group-commit window. Quotes price it, dispatch skips it, and
	// duplicate awards or queries for it wait on syncCond until the barrier
	// resolves into an acceptance or a refusal.
	stateUnsynced contractState = iota
	// stateQueued: accepted and waiting for a processor.
	stateQueued
	// stateRunning: occupying a processor until its completion timer fires.
	stateRunning
)

// outcomeRefused closes a contract whose award was refused after its
// journal sync failed. It never counted as accepted, so unlike the ledger
// outcomes it books nothing.
const outcomeRefused = "refused"

// contract is one open contract: everything the site holds about it, in
// one record, whatever its state.
type contract struct {
	t     *task.Task
	seq   uint64           // booking order, the key of pending
	terms market.ServerBid // standing terms, answered to duplicate awards and queries
	owner *serverConn      // settlement recipient; nil once its client left
	req   string           // lifecycle trace ID
	state contractState
	idx   uint64      // journal index of the contract record, while unsynced
	timer *time.Timer // completion timer, while running
}

// startDigest installs stop as the connection's digest-pusher cancel
// channel, stopping any previous pusher (a re-subscription replaces the
// old cadence rather than doubling the pushes).
func (c *serverConn) startDigest(stop chan struct{}) {
	c.digestMu.Lock()
	if c.digestStop != nil {
		close(c.digestStop)
	}
	c.digestStop = stop
	c.digestMu.Unlock()
}

// stopDigest cancels the connection's digest pusher, if any.
func (c *serverConn) stopDigest() {
	c.digestMu.Lock()
	if c.digestStop != nil {
		close(c.digestStop)
		c.digestStop = nil
	}
	c.digestMu.Unlock()
}

// NewServer starts a site listening on addr ("host:port"; port 0 picks a
// free port).
func NewServer(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.Processors < 1 {
		return nil, fmt.Errorf("wire: processors %d must be >= 1", cfg.Processors)
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("wire: policy is required")
	}
	if cfg.MaxPending < 0 || cfg.MaxInflightBids < 0 {
		return nil, fmt.Errorf("wire: shed caps (%d pending, %d inflight) must be >= 0", cfg.MaxPending, cfg.MaxInflightBids)
	}
	if cfg.Admission == nil {
		cfg.Admission = admission.AcceptAll{}
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = time.Millisecond
	}
	if r := cfg.crashRegime(); r != RegimeRequeue && r != RegimeDefault {
		return nil, fmt.Errorf("wire: unknown crash regime %q", cfg.CrashRegime)
	}
	log := cfg.Logger.With("site", cfg.SiteID)
	ep, err := listen(addr, endpointConfig{
		label:         cfg.SiteID,
		idleTimeout:   cfg.IdleTimeout,
		writeTimeout:  cfg.WriteTimeout,
		maxFrameBytes: cfg.MaxFrameBytes,
		metrics:       cfg.Metrics,
		log:           log,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		ep:       ep,
		log:      log,
		m:        newServerMetrics(cfg.Metrics, cfg.SiteID),
		shed:     newShedGate(cfg.MaxPending, cfg.MaxInflightBids),
		start:    time.Now(),
		open:     make(map[task.ID]*contract),
		running:  make(map[task.ID]*contract),
		unsynced: make(map[task.ID]*contract),
		settled:  make(map[task.ID]settlement),
	}
	s.syncCond = sync.NewCond(&s.bookMu)
	if cfg.DataDir != "" {
		// Recovery runs to completion before the listener accepts: the
		// first bid already quotes against the recovered queue.
		if err := s.openJournal(); err != nil {
			ep.ln.Close()
			return nil, err
		}
	}
	// Publish the initial snapshot (empty, or the recovered queue) and start
	// what the recovered queue can run before the first connection arrives.
	s.bookMu.Lock()
	s.publishLocked()
	s.dispatchLocked()
	s.bookMu.Unlock()
	ep.start(s.handle, s.gone)
	return s, nil
}

// snapshotLocked captures the book's scheduling state as an immutable
// quote snapshot, copying the queued tasks so later book mutations never
// show through — the one publisher that must copy, since the simulator's
// view is single-threaded and aliases its queue. Callers must hold bookMu.
func (s *Server) snapshotLocked() *site.QuoteSnapshot {
	qs := &site.QuoteSnapshot{
		Version:      s.version,
		Procs:        s.cfg.Processors,
		Policy:       s.cfg.Policy,
		DiscountRate: s.cfg.DiscountRate,
	}
	if len(s.pending) > 0 {
		qs.Pending = make([]*task.Task, len(s.pending))
		for i, c := range s.pending {
			cp := *c.t
			qs.Pending[i] = &cp
		}
	}
	if len(s.running) > 0 {
		qs.Running = make([]site.RunningSlot, 0, len(s.running))
		for _, c := range s.running {
			qs.Running = append(qs.Running, site.RunningSlot{Start: c.t.Start, Runtime: c.t.Runtime})
		}
	}
	return qs
}

// publishLocked rebuilds and publishes the book's quote snapshot. Callers
// must hold bookMu.
func (s *Server) publishLocked() {
	s.snap.Store(s.snapshotLocked())
	s.m.snapshotPublishes.Inc()
}

// bumpLocked marks the book's scheduling state changed and republishes its
// snapshot. Every mutation of pending/running must bump before releasing
// bookMu, or an award could validate its optimistic quote against a
// version that no longer describes the live state. Callers must hold
// bookMu.
func (s *Server) bumpLocked() {
	s.version++
	s.publishLocked()
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ep.ln.Addr().String() }

// Close stops accepting connections, severs live ones, cancels pending
// completion timers, and waits for in-flight completion callbacks and
// connection goroutines to drain. In-flight tasks are abandoned and their
// settlements are never sent; Close is safe to call more than once.
func (s *Server) Close() error {
	// The book is drained before the connections are severed, so a
	// disconnect finds no queued task to abandon and journals nothing: the
	// open contracts stay recoverable.
	first, err := s.ep.close(s.abandonBook)
	if !first {
		return nil
	}
	s.timerWG.Wait()
	if s.j != nil {
		// Contracts still open here were journaled but never closed: the
		// next start recovers them. Close flushes the tail and writes the
		// clean-shutdown marker.
		if jerr := s.j.Close(); jerr != nil && err == nil {
			err = jerr
		}
	}
	return err
}

// abandonBook abandons every queued contract and every running one whose
// completion timer has not fired, at shutdown. A timer already firing
// abandons its contract itself.
func (s *Server) abandonBook() {
	s.bookMu.Lock()
	defer s.bookMu.Unlock()
	for len(s.pending) > 0 {
		s.closeLocked(s.pending[0], obs.OutcomeAbandoned, s.now(), 0, "server closed")
	}
	for _, c := range s.running {
		if c.timer.Stop() {
			// The callback will never run; release its drain slot.
			s.timerWG.Done()
			c.timer = nil
			s.closeLocked(c, obs.OutcomeAbandoned, s.now(), 0, "server closed mid-run")
		}
	}
	s.syncGaugesLocked()
}

// now returns the current time in simulation units since server start.
func (s *Server) now() float64 {
	return float64(time.Since(s.start)) / float64(s.cfg.TimeScale)
}

// syncGaugesLocked refreshes the queue-depth and running-task gauges after
// a scheduler state change. Callers must hold bookMu.
func (s *Server) syncGaugesLocked() {
	s.m.Depth(len(s.pending), len(s.running))
}

// traceLocked emits lifecycle event e for the contract c, filling in the
// contract's identity and request ID and the book's queue state. Callers
// must hold bookMu.
func (s *Server) traceLocked(c *contract, e obs.TraceEvent) {
	if s.cfg.Tracer == nil {
		return
	}
	e.Task, e.Req, e.Site = uint64(c.t.ID), c.req, s.cfg.SiteID
	e.Queued, e.Running = len(s.pending), len(s.running)
	s.cfg.Tracer.Emit(e)
}

// bookLocked opens c, unsynced or queued, at the tail of the queue with
// the next booking stamp. Callers must hold bookMu.
func (s *Server) bookLocked(c *contract) {
	s.seq++
	c.seq = s.seq
	s.open[c.t.ID] = c
	s.pending = append(s.pending, c)
	if c.state == stateUnsynced {
		s.unsynced[c.t.ID] = c
	}
}

// unqueueLocked drops c from the queue, found by its booking stamp (the
// queue is in strictly increasing stamp order). Callers must hold bookMu.
func (s *Server) unqueueLocked(c *contract) {
	i := sort.Search(len(s.pending), func(i int) bool { return s.pending[i].seq >= c.seq })
	last := len(s.pending) - 1
	copy(s.pending[i:], s.pending[i+1:])
	s.pending[last] = nil // the backing array must not keep a closed record alive
	s.pending = s.pending[:last]
}

// syncedLocked accepts c once its journal record is durable: the contract
// leaves its group-commit window and becomes dispatchable. The caller
// broadcasts syncCond. Callers must hold bookMu.
func (s *Server) syncedLocked(c *contract) {
	delete(s.unsynced, c.t.ID)
	c.state = stateQueued
	s.acceptLocked(c)
}

// closeLocked ends the open contract c at time at with the realized price:
// settled by its run, defaulted in recovery, abandoned by shutdown or its
// client, or refused after a failed sync. The record leaves the book and
// its indexes; a settled or defaulted contract leaves its compact
// settlement behind for status queries; and the outcome is booked once
// into the stats, counters, ledger and trace. Callers must hold bookMu and
// do their own journaling.
func (s *Server) closeLocked(c *contract, outcome string, at, price float64, detail string) {
	t := c.t
	delete(s.open, t.ID)
	switch c.state {
	case stateUnsynced:
		delete(s.unsynced, t.ID)
		s.syncCond.Broadcast()
		s.unqueueLocked(c)
	case stateQueued:
		s.unqueueLocked(c)
	case stateRunning:
		delete(s.running, t.ID)
	}
	event := outcome
	switch outcome {
	case outcomeRefused:
		t.State = task.Rejected
		return
	case obs.OutcomeAbandoned:
		t.State = task.Rejected
		s.mu.Lock()
		s.Abandoned++
		s.mu.Unlock()
		s.m.abandoned.Inc()
		s.traceLocked(c, obs.TraceEvent{Stage: obs.StageAbandon, T: s.now(), Detail: detail})
	case obs.OutcomeSettled:
		event = "completed"
		s.settled[t.ID] = settlement{T: at, Price: price}
		s.mu.Lock()
		s.Completed++
		s.Revenue += price
		s.mu.Unlock()
		s.m.completed.Inc()
		s.m.Settle(t.Cohort, price)
		s.m.lateness.Observe(at - c.terms.ExpectedCompletion)
		s.traceLocked(c, obs.TraceEvent{Stage: obs.StageComplete, T: at, Value: price, Dur: at - t.Start,
			Cohort: t.Cohort, Client: t.Client})
	case obs.OutcomeDefaulted:
		s.settled[t.ID] = settlement{Defaulted: true, T: at, Price: price}
		s.mu.Lock()
		s.Defaulted++
		s.Revenue += price
		s.mu.Unlock()
		s.m.defaulted.Inc()
		if price < 0 { // a default realizes only its penalty
			s.m.Settle(t.Cohort, price)
		}
	}
	s.m.Cohort(t.Cohort, event)
	// A contract still inside a group-commit window was never ledger-opened
	// (acceptance happens at the durability barrier).
	if s.cfg.Ledger != nil && c.state != stateUnsynced {
		s.cfg.Ledger.Settle(uint64(t.ID), outcome, at, price)
	}
}

// handle answers one request on a client connection.
func (s *Server) handle(sc *serverConn, env Envelope) Envelope {
	began := time.Now()
	switch env.Type {
	case TypeBid:
		reply := s.handleBid(env)
		s.m.rpcBid.Inc()
		s.m.rpcBidSec.Observe(time.Since(began).Seconds())
		return reply
	case TypeAward:
		reply := s.handleAward(env, sc)
		s.m.rpcAward.Inc()
		s.m.rpcAwardSec.Observe(time.Since(began).Seconds())
		return reply
	case TypeQuery:
		s.m.rpcQuery.Inc()
		return s.handleQuery(env, sc)
	case TypeDigestSub:
		return s.handleDigestSub(env, sc)
	}
	return Envelope{Type: TypeError, Reason: fmt.Sprintf("unexpected message %q", env.Type)}
}

// gone releases a disconnected client's state: its digest pusher and the
// contracts it owned.
func (s *Server) gone(sc *serverConn) {
	sc.stopDigest()
	s.dropOwner(sc)
}

// dropOwner forgets a disconnected client's contracts: queued tasks are
// discarded (nobody is left to pay for them), running tasks finish but
// settle into the void. The book republishes only if it lost a queued
// task: orphaning a running task changes no scheduling state, and an idle
// disconnect must not invalidate every in-flight optimistic award.
func (s *Server) dropOwner(sc *serverConn) {
	s.bookMu.Lock()
	defer s.bookMu.Unlock()
	removed := false
	for id, c := range s.open {
		if c.owner != sc {
			continue
		}
		c.owner, c.req = nil, ""
		// A running task survives owner loss: the contract is still open,
		// so its standing terms stay on the book for Query re-adoption and
		// the eventual settlement.
		if c.state == stateRunning {
			s.log.Info("task orphaned mid-run: client disconnected", "task", id)
			continue
		}
		// One timestamp: a restart re-seeds the ledger from the record.
		now := s.now()
		s.closeLocked(c, obs.OutcomeAbandoned, now, 0, "client disconnected")
		if err := s.appendRecord(contractRecord{Kind: recAbandon, TaskID: id, T: now, Reason: "client disconnected"}); err != nil {
			s.log.Warn("journal abandon record failed", "task", id, "err", err.Error())
		}
		s.log.Info("dropped queued task: client disconnected", "task", id)
		removed = true
	}
	if removed {
		s.syncGaugesLocked()
		s.bumpLocked()
	}
}

// handleBid quotes a bid against the current candidate schedule without
// committing resources. It ranks the bid against the published snapshot
// with zero lock acquisitions: quoting is a pure read, so any number of
// bids evaluate in parallel with each other and with the scheduler. Only
// bookkeeping (reject counters) briefly takes the stats lock.
func (s *Server) handleBid(env Envelope) Envelope {
	bid, err := s.decodeBid(env)
	if err != nil {
		return Envelope{Type: TypeError, Reason: err.Error()}
	}
	// A bid whose deadline budget was spent in transit is dead on arrival:
	// any quote would expire before the client could act on it. Refuse
	// before quoting — the whole point is not to spend capacity on it.
	if DeadlineSpent(bid.Deadline) {
		s.m.deadlineExpired.Inc()
		return s.shedReject(bid, shedReasonDeadline, "deadline budget spent", s.shedFloorNow())
	}
	// The in-flight gate bounds concurrent quote evaluations; overflow is
	// shed immediately, unpriced work costing the site nothing.
	if !s.shed.acquire() {
		return s.shedReject(bid, shedReasonInflight, "bid quota exhausted", s.shedFloorNow())
	}
	defer s.shed.release()
	snap := s.snap.Load()
	s.m.snapshotQuotes.Inc()
	q, err := snap.Quote(s.now(), s.bidTask(bid))
	if err != nil {
		return Envelope{Type: TypeError, Reason: err.Error()}
	}
	depth := len(snap.Pending)
	if floor, reason := s.shed.evaluate(depth, q.ExpectedYield); reason != "" {
		return s.shedReject(bid, reason, fmt.Sprintf("yield %.2f below floor %.2f at depth %d", q.ExpectedYield, floor, depth), floor)
	}
	s.m.Slack(q.Slack)
	if !s.cfg.Admission.Admit(q) {
		s.m.rejected.Inc()
		s.m.Cohort(bid.Cohort, "rejected")
		s.mu.Lock()
		s.Rejected++
		s.mu.Unlock()
		s.traceBid(obs.StageReject, bid, q.Slack, "slack below threshold")
		return Envelope{Type: TypeReject, TaskID: bid.TaskID, SiteID: s.cfg.SiteID,
			Reason: fmt.Sprintf("slack %.2f below threshold", q.Slack)}
	}
	s.shed.observeAdmit(q.ExpectedYield)
	s.traceBid(obs.StageBid, bid, q.Slack, "")
	return Envelope{
		Type:               TypeServerBid,
		TaskID:             bid.TaskID,
		SiteID:             s.cfg.SiteID,
		ExpectedCompletion: q.ExpectedCompletion,
		ExpectedPrice:      q.ExpectedYield,
	}
}

// traceBid emits a bid-time lifecycle event for a task that may not yet
// (or ever) have an entry in the live-contract table, carrying the bid's
// own request ID. Queue and running counts come from the published
// snapshot, so no lock is needed.
func (s *Server) traceBid(stage string, bid market.Bid, value float64, detail string) {
	if s.cfg.Tracer == nil {
		return
	}
	snap := s.snap.Load()
	s.cfg.Tracer.Emit(obs.TraceEvent{
		Stage:   stage,
		Task:    uint64(bid.TaskID),
		Req:     bid.ReqID,
		Site:    s.cfg.SiteID,
		T:       s.now(),
		Value:   value,
		Queued:  len(snap.Pending),
		Running: len(snap.Running),
		Cohort:  bid.Cohort,
		Client:  bid.Client,
		Detail:  detail,
	})
}

// handleAward re-quotes, admits, and schedules the task; the contract
// settles when the task's wall-clock run completes. A duplicate award for
// a task still under contract returns the standing terms instead of an
// error, making awards idempotent so clients can safely retry after a
// connection-level failure.
//
// The award is optimistic-then-validate: the quote is computed lock-free
// against the published snapshot, and under the book lock the award checks
// that the live version still matches the snapshot's — a mismatch means
// the scheduling state moved underneath the quote, and the award re-quotes
// under the lock. The journal append happens under the lock (fixing the
// contract's place in the record order), but the fsync wait happens
// outside it via SyncBarrier, so concurrent awards share one group-commit
// fsync instead of serializing the disk behind the lock. Until the barrier
// lands, the contract's record is in state unsynced: quotes price it,
// dispatch skips it, and duplicate awards or queries for it wait — so
// nothing observable (an ack, a running task, an adopted owner) can
// outrace the disk.
func (s *Server) handleAward(env Envelope, sc *serverConn) Envelope {
	bid, err := s.decodeBid(env)
	if err != nil {
		return Envelope{Type: TypeError, Reason: err.Error()}
	}
	// Optimistic quote, before any lock.
	snap := s.snap.Load()
	s.m.snapshotQuotes.Inc()
	q, qerr := snap.Quote(s.now(), s.bidTask(bid))

	s.bookMu.Lock()
	// An award racing a contract still inside a group-commit window waits
	// for the barrier: the book cannot answer until the journal does.
	s.waitSyncedLocked(bid.TaskID)
	// Idempotency is keyed off the contract book, which the journal rebuilds
	// across restarts: a client retrying an award after a site crash gets
	// its standing terms back, not a second contract.
	if c := s.open[bid.TaskID]; c != nil {
		c.owner = sc // the retrying connection owns the settlement now
		if bid.ReqID != "" {
			c.req = bid.ReqID
		}
		s.bookMu.Unlock()
		return contractReply(c.terms)
	}
	// A retried award whose contract already settled (the run beat the
	// retry) reports the closed contract instead of executing it twice.
	if st, ok := s.settled[bid.TaskID]; ok {
		s.bookMu.Unlock()
		return s.statusEnvelope(bid.TaskID, st)
	}
	// Validate the optimistic quote: if the scheduling state has not moved
	// since the snapshot was published, the lock-free quote is what a
	// locked re-quote would compute and is honored as-is.
	if qerr == nil && snap.Version == s.version {
		s.m.validateMatch.Inc()
	} else {
		s.m.validateMismatch.Inc()
		s.m.lockedQuotes.Inc()
		q, qerr = s.quoteLocked(bid)
	}
	if qerr != nil {
		s.bookMu.Unlock()
		return Envelope{Type: TypeError, Reason: qerr.Error()}
	}
	s.m.Slack(q.Slack)
	if !s.cfg.Admission.Admit(q) {
		s.mu.Lock()
		s.Rejected++
		s.mu.Unlock()
		s.m.rejected.Inc()
		s.m.Cohort(bid.Cohort, "rejected")
		s.traceBid(obs.StageReject, bid, q.Slack, "mix changed since proposal")
		s.bookMu.Unlock()
		return Envelope{Type: TypeReject, TaskID: bid.TaskID, SiteID: s.cfg.SiteID,
			Reason: "mix changed since proposal"}
	}
	// The overload valve applies at award exactly as at bid: quoting never
	// reserves a slot, so this is the only gate that actually bounds the
	// book. Deadline expiry deliberately does not apply — an award is a
	// commitment the client already made, not a quote that can go stale.
	depth := len(s.pending)
	if floor, reason := s.shed.evaluate(depth, q.ExpectedYield); reason != "" {
		s.bookMu.Unlock()
		return s.shedReject(bid, reason, fmt.Sprintf("yield %.2f below floor %.2f at depth %d", q.ExpectedYield, floor, depth), floor)
	}
	s.shed.observeAdmit(q.ExpectedYield)
	t := s.bidTask(bid)
	t.State = task.Queued
	sb := market.ServerBid{SiteID: s.cfg.SiteID, TaskID: t.ID,
		ExpectedCompletion: q.ExpectedCompletion, ExpectedPrice: q.ExpectedYield}
	// Append under the book lock — the record order matches the book order —
	// but do not wait for the disk here.
	idx, journaled, jerr := s.appendRecordIdx(contractRecord{
		Kind: recContract, TaskID: t.ID, Req: bid.ReqID,
		Arrival: t.Arrival, Runtime: t.Runtime, Value: t.Value,
		Decay: t.Decay, Bound: EncodeBound(t.Bound),
		ExpectedCompletion: sb.ExpectedCompletion, ExpectedPrice: sb.ExpectedPrice,
		Cohort: t.Cohort, Client: t.Client,
	})
	if jerr != nil {
		s.bookMu.Unlock()
		s.log.Warn("journal write failed, refusing award", "task", t.ID, "err", jerr.Error())
		return Envelope{Type: TypeError, Reason: "site journal unavailable"}
	}
	c := &contract{t: t, terms: sb, owner: sc, req: bid.ReqID, state: stateQueued}
	if journaled {
		c.state, c.idx = stateUnsynced, idx
	}
	s.bookLocked(c)
	s.syncGaugesLocked()
	s.traceLocked(c, obs.TraceEvent{Stage: obs.StageContract, T: s.now()})
	s.bumpLocked()
	if !journaled {
		// Memory-only site: nothing to wait for, finish the award inline.
		s.acceptLocked(c)
		s.dispatchLocked()
		s.bookMu.Unlock()
		return contractReply(sb)
	}
	s.bookMu.Unlock()

	// Wait for durability outside the lock. Concurrent awards waiting here
	// share one fsync round; the ack below still never outruns the disk.
	if serr := s.j.SyncBarrier(idx); serr != nil {
		if s.rollbackUnsyncedAward(c, serr) {
			return Envelope{Type: TypeError, Reason: "site journal unavailable"}
		}
		// The record reached the disk through a later round after the
		// failed one resolved the uncertainty: the contract stands.
	} else {
		s.finishDurableAwards(idx)
	}
	return contractReply(sb)
}

// contractReply frames a contract's standing terms as the award ack.
func contractReply(sb market.ServerBid) Envelope {
	return Envelope{
		Type:               TypeContract,
		TaskID:             sb.TaskID,
		SiteID:             sb.SiteID,
		ExpectedCompletion: sb.ExpectedCompletion,
		ExpectedPrice:      sb.ExpectedPrice,
	}
}

// acceptLocked books a contract as accepted once nothing can refuse it any
// more — at the award itself on a memory-only site, at the durability
// barrier otherwise: the accepted counters, the ledger entry with the
// standing terms, and the acceptance log line. Callers must hold bookMu.
func (s *Server) acceptLocked(c *contract) {
	t, sb := c.t, c.terms
	s.mu.Lock()
	s.Accepted++
	s.mu.Unlock()
	s.m.accepted.Inc()
	s.m.Cohort(t.Cohort, "accepted")
	if s.cfg.Ledger != nil {
		s.cfg.Ledger.Open(obs.LedgerEntry{
			Task:               uint64(t.ID),
			Req:                c.req,
			Cohort:             t.Cohort,
			Client:             t.Client,
			BidValue:           t.Value,
			QuotedPrice:        sb.ExpectedPrice,
			ExpectedCompletion: sb.ExpectedCompletion,
			AwardedAt:          t.Arrival,
		})
	}
	s.log.Info("accepted task", "task", t.ID, "runtime", t.Runtime, "expected_completion", sb.ExpectedCompletion)
}

// waitSyncedLocked blocks while id's contract sits inside a group-commit
// window. Callers must hold bookMu.
func (s *Server) waitSyncedLocked(id task.ID) {
	for s.unsynced[id] != nil {
		s.syncCond.Wait()
	}
}

// finishDurableAwards completes the bookkeeping for every award the
// journal's durability frontier now covers: accepted counters, the
// acceptance log line, and one dispatch for the whole batch. The first
// finisher of a group-commit round sweeps the book for everyone in it;
// awards that find the swept frontier already past their record skip the
// lock entirely, so the post-barrier cost is per round, not per award.
func (s *Server) finishDurableAwards(idx uint64) {
	if s.swept.Load() > idx {
		return
	}
	durableIdx := s.j.Durable()
	s.bookMu.Lock()
	finished := false
	for _, c := range s.unsynced {
		if c.idx >= durableIdx {
			continue
		}
		s.syncedLocked(c)
		finished = true
	}
	if finished {
		s.syncCond.Broadcast()
		s.dispatchLocked()
	}
	s.bookMu.Unlock()
	for {
		cur := s.swept.Load()
		if cur >= durableIdx || s.swept.CompareAndSwap(cur, durableIdx) {
			break
		}
	}
}

// rollbackUnsyncedAward unwinds an unsynced contract after its group-commit
// barrier failed, returning true when the award was refused. If a batch
// sweep already moved the record on, a later successful round put it on
// stable storage and the contract was accepted — rollback reports false
// and the award is acked normally. The same applies if the durability
// frontier has moved past the record: the failed round's uncertainty is
// resolved in the contract's favor, so this goroutine finishes the
// acceptance itself. Only a record that is genuinely not durable is
// refused, and the compensating abandon record keeps the journal foldable
// if the contract's bytes did reach the disk (the failed sync leaves that
// unknowable). A record shutdown closed while it was unsynced has left the
// book already; its award is decided the same way.
func (s *Server) rollbackUnsyncedAward(c *contract, serr error) bool {
	id := c.t.ID
	s.bookMu.Lock()
	booked := s.unsynced[id] == c
	if c.state != stateUnsynced || s.j.Durable() > c.idx {
		if booked {
			s.syncedLocked(c)
			s.syncCond.Broadcast()
			s.dispatchLocked()
		}
		s.bookMu.Unlock()
		return false
	}
	now := s.now()
	if booked {
		s.closeLocked(c, outcomeRefused, now, 0, "")
		s.syncGaugesLocked()
		s.bumpLocked()
	}
	if aerr := s.appendRecord(contractRecord{Kind: recAbandon, TaskID: id, T: now, Reason: "award refused: journal sync failed"}); aerr != nil {
		s.log.Warn("journal abandon record failed", "task", id, "err", aerr.Error())
	}
	s.bookMu.Unlock()
	s.log.Warn("journal sync failed, refusing award", "task", id, "err", serr.Error())
	return true
}

// decodeBid decodes a bid or award's terms and refuses a runtime longer
// than the site's completion timer can run: past math.MaxInt64 nanoseconds
// the timer's duration would wrap negative and the task would settle at
// once, long before its contracted completion.
func (s *Server) decodeBid(env Envelope) (market.Bid, error) {
	bid, err := env.Bid()
	if err == nil && bid.Runtime*float64(s.cfg.TimeScale) >= math.MaxInt64 {
		err = fmt.Errorf("wire: bid for task %d has runtime %g, longer than the site's timer can run at %v per unit",
			bid.TaskID, bid.Runtime, s.cfg.TimeScale)
	}
	return bid, err
}

// bidTask materializes the bid as a task arriving now in server time. The
// client's own arrival stamp is not meaningful in the server's clock
// domain, so delay is measured from receipt — the negotiated completion
// time plays the contractual role.
func (s *Server) bidTask(bid market.Bid) *task.Task {
	t := task.New(bid.TaskID, s.now(), bid.Runtime, bid.Value, bid.Decay, bid.Bound)
	t.Cohort = bid.Cohort
	t.Client = bid.Client
	return t
}

// quoteLocked evaluates a bid against a snapshot of the live book, priced
// exactly as the lock-free path would. Callers must hold bookMu.
func (s *Server) quoteLocked(bid market.Bid) (admission.Quote, error) {
	// Live servers quote at wall-clock instants, so consecutive quotes
	// never share a snapshot's cached base candidate: every evaluation
	// ranks the book afresh (one ranking plus an insertion when the policy
	// has a key, a full build otherwise), counted as a cache miss so the
	// site_quote_reuse series is comparable with the simulator's.
	s.m.QuoteReuse(false)
	return s.snapshotLocked().Quote(s.now(), s.bidTask(bid))
}

// dispatchLocked starts queued tasks, best first as the policy ranks
// them, while processors are free. Each started task's completion
// timer is tracked so Close can cancel it or wait for its callback to
// drain. Callers must hold bookMu.
func (s *Server) dispatchLocked() {
	if s.ep.isClosed() {
		return
	}
	now := s.now()
	free := s.cfg.Processors - len(s.running)
	// Contracts still inside a group-commit window are quotable but not
	// startable: if their sync fails the award is rolled back, and rollback
	// must only ever touch the queue, never a running timer.
	eligible := make([]*task.Task, 0, len(s.pending))
	for _, c := range s.pending {
		if c.state == stateQueued {
			eligible = append(eligible, c.t)
		}
	}
	starts, ranks := core.PlanStarts(s.cfg.Policy, now, free, eligible)
	if ranks > 0 {
		s.m.RankOps(ranks)
	}
	for _, t := range starts {
		c := s.open[t.ID]
		s.unqueueLocked(c)
		c.state = stateRunning
		t.State = task.Running
		t.Start = now
		s.running[t.ID] = c
		if err := s.appendRecord(contractRecord{Kind: recStart, TaskID: t.ID, T: now}); err != nil {
			// Non-fatal: a lost start record only weakens the crash regime
			// (the task recovers as queued instead of crash-preempted).
			s.log.Warn("journal start record failed", "task", t.ID, "err", err.Error())
		}
		s.syncGaugesLocked()
		s.traceLocked(c, obs.TraceEvent{Stage: obs.StageStart, T: s.now()})
		s.log.Info("running task", "task", t.ID, "runtime", t.Runtime)
		dur := time.Duration(t.Runtime * float64(s.cfg.TimeScale))
		s.timerWG.Add(1)
		c.timer = time.AfterFunc(dur, func() {
			defer s.timerWG.Done()
			s.complete(c)
		})
	}
	if len(starts) > 0 {
		s.bumpLocked()
	}
}

// complete settles a running contract when its completion timer fires.
func (s *Server) complete(c *contract) {
	t := c.t
	s.bookMu.Lock()
	c.timer = nil
	if s.ep.isClosed() {
		// Shutdown racing the timer: abandon rather than settle, so no
		// settlement is sent after Close returns.
		s.closeLocked(c, obs.OutcomeAbandoned, s.now(), 0, "server closed mid-run")
		s.syncGaugesLocked()
		s.bookMu.Unlock()
		return
	}
	now := s.now()
	t.State = task.Completed
	t.Completion = now
	t.Yield = t.YieldAtCompletion(now)
	settleIdx, settleJournaled, err := s.appendRecordIdx(contractRecord{Kind: recSettle, TaskID: t.ID, T: now, Price: t.Yield})
	if err != nil {
		s.log.Warn("journal settle record failed", "task", t.ID, "err", err.Error())
	}
	owner, req := c.owner, c.req
	s.closeLocked(c, obs.OutcomeSettled, now, t.Yield, "")
	s.syncGaugesLocked()
	s.bumpLocked()
	s.dispatchLocked()
	s.bookMu.Unlock()

	// A settle record under FsyncAlways must be durable before the
	// settlement push, as it was when Append synced inline; it rides the
	// shared group-commit barrier, outside the lock.
	if settleJournaled && s.cfg.Fsync == durable.FsyncAlways {
		if serr := s.j.SyncBarrier(settleIdx); serr != nil {
			s.log.Warn("journal settle sync failed", "task", t.ID, "err", serr.Error())
		}
	}
	if owner != nil {
		err := owner.send(Envelope{
			Type:        TypeSettled,
			ReqID:       req,
			TaskID:      t.ID,
			SiteID:      s.cfg.SiteID,
			CompletedAt: now,
			FinalPrice:  t.Yield,
		})
		if err != nil {
			s.m.settleLost.Inc()
			s.log.Warn("settlement undeliverable", "task", t.ID, "err", err.Error())
		} else {
			s.m.settleOK.Inc()
		}
	}
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Emit(obs.TraceEvent{
			Stage: obs.StageSettle, Task: uint64(t.ID), Req: req, Site: s.cfg.SiteID,
			T: now, Value: t.Yield, Cohort: t.Cohort, Client: t.Client,
		})
	}
	s.log.Info("settled task", "task", t.ID, "t", now, "price", t.Yield)
}

// handleQuery reports a contract's state: open (with the standing terms),
// settled or defaulted (with the final price), or unknown. Querying an open
// contract adopts the querying connection as the settlement owner — this is
// how a client that redialed after a site restart re-subscribes to the
// settlement push it would otherwise never receive.
func (s *Server) handleQuery(env Envelope, sc *serverConn) Envelope {
	id := env.TaskID
	s.bookMu.Lock()
	defer s.bookMu.Unlock()
	// A query racing a contract inside a group-commit window waits for the
	// barrier: adopting an owner for a contract that may yet be refused
	// would leak an observable effect past a failed sync.
	s.waitSyncedLocked(id)
	if st, ok := s.settled[id]; ok {
		return s.statusEnvelope(id, st)
	}
	if c := s.open[id]; c != nil {
		c.owner = sc
		if env.ReqID != "" {
			c.req = env.ReqID
		}
		return Envelope{
			Type: TypeStatus, TaskID: id, SiteID: s.cfg.SiteID,
			ContractState:      ContractOpen,
			ExpectedCompletion: c.terms.ExpectedCompletion,
			ExpectedPrice:      c.terms.ExpectedPrice,
		}
	}
	return Envelope{Type: TypeStatus, TaskID: id, SiteID: s.cfg.SiteID, ContractState: ContractUnknown}
}

// statusEnvelope frames a closed contract's settlement.
func (s *Server) statusEnvelope(id task.ID, st settlement) Envelope {
	state := ContractSettled
	if st.Defaulted {
		state = ContractDefaulted
	}
	return Envelope{
		Type: TypeStatus, TaskID: id, SiteID: s.cfg.SiteID,
		ContractState: state, CompletedAt: st.T, FinalPrice: st.Price,
	}
}
