package wire

import (
	"fmt"
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
	// Shards splits the contract book into this many independently locked
	// shards keyed by task ID (DESIGN.md §14). Bids quote against the k-way
	// merge of the shards' published snapshots, and dispatch plans over the
	// merged queue under one global planner lock, so admission decisions and
	// prices do not depend on the shard count. Zero or one means a single
	// shard.
	Shards int
	// Codecs restricts which wire codecs the server will negotiate in the
	// v2 hello/welcome handshake. Empty allows every registered codec; JSON
	// is always allowed as the mandatory fallback.
	Codecs []string
}

func (c ServerConfig) crashRegime() string {
	if c.CrashRegime == "" {
		return RegimeRequeue
	}
	return c.CrashRegime
}

func (c ServerConfig) shardCount() int {
	if c.Shards < 1 {
		return 1
	}
	return c.Shards
}

// Server is a real-time task-service site: the same policy, quoting, and
// admission logic as the simulated site, executing tasks on wall-clock
// timers and serving the Figure 1 protocol over TCP. Scheduling is
// non-preemptive.
//
// The contract book is split into shards keyed by task ID. Each shard owns
// its own lock, its own slice of the book, and its own published quote
// snapshot; processors are a single site-wide pool filled by a global
// dispatch planner that locks every shard. Lock order is always
// dispatchMu → shard locks (ascending) → mu; mu is a leaf guarding only
// the exported stats. The endpoint's lock (connections and the closed
// flag) is a leaf too.
type Server struct {
	cfg  ServerConfig
	ep   *endpoint
	log  *obs.Logger
	m    serverMetrics
	shed *shedGate

	start  time.Time
	shards []*bookShard
	// seq stamps every booked contract with its global arrival order, so
	// the merged pending queue can be reassembled in exactly the order a
	// single-shard book would hold it.
	seq atomic.Uint64
	// nQueued/nRunning mirror the site-wide pending and running totals for
	// gauges and trace events without touching every shard. They change only
	// under the owning shard's lock, so with every shard lock held (the
	// dispatch planner) they are exact.
	nQueued  atomic.Int64
	nRunning atomic.Int64
	// dispatchMu serializes the global dispatch planner: dispatch locks all
	// shards to plan over the merged queue, and the planner lock keeps two
	// dispatchers from interleaving their shard acquisitions.
	dispatchMu sync.Mutex

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
	seq   uint64           // global booking order, for the merged queue
	terms market.ServerBid // standing terms, answered to duplicate awards and queries
	owner *serverConn      // settlement recipient; nil once its client left
	req   string           // lifecycle trace ID
	state contractState
	idx   uint64      // journal index of the contract record, while unsynced
	timer *time.Timer // completion timer, while running
}

// bookShard is one lock's worth of the contract book: the open contracts
// whose ID hashes here, plus the shard's own published quote snapshot.
type bookShard struct {
	s *Server

	mu sync.Mutex
	// open holds every open contract on the shard. The three indexes below
	// point into it by state: pending holds the unsynced and queued
	// contracts in booking order, running the running ones, and unsynced
	// the ones inside a group-commit window. A record leaves the unsynced
	// index exactly once — accepted by the batch sweep, or closed (refused
	// by its award's rollback, abandoned at shutdown) — so a failed round's
	// rollback can tell from the record whether a later successful round
	// already decided it.
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

	// version counts this shard's scheduling-state changes. It is written
	// under mu and stamped into every published snapshot, so an award can
	// validate each shard part of its optimistic quote against the live
	// counter without taking the other shards' locks.
	version atomic.Uint64
	board   site.Board
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
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("wire: shards %d must be >= 0", cfg.Shards)
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
	for _, name := range cfg.Codecs {
		if _, ok := CodecByName(name); !ok {
			return nil, fmt.Errorf("wire: unknown codec %q", name)
		}
	}
	log := cfg.Logger.With("site", cfg.SiteID)
	ep, err := listen(addr, endpointConfig{
		label:         cfg.SiteID,
		codecs:        cfg.Codecs,
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
		cfg:   cfg,
		ep:    ep,
		log:   log,
		m:     newServerMetrics(cfg.Metrics, cfg.SiteID),
		shed:  newShedGate(cfg.MaxPending, cfg.MaxInflightBids),
		start: time.Now(),
	}
	nshards := cfg.shardCount()
	s.shards = make([]*bookShard, nshards)
	for i := range s.shards {
		sh := &bookShard{
			s:        s,
			open:     make(map[task.ID]*contract),
			running:  make(map[task.ID]*contract),
			unsynced: make(map[task.ID]*contract),
			settled:  make(map[task.ID]settlement),
		}
		sh.syncCond = sync.NewCond(&sh.mu)
		s.shards[i] = sh
	}
	if cfg.DataDir != "" {
		// Recovery runs to completion before the listener accepts: the
		// first bid already quotes against the recovered queue.
		if err := s.openJournal(); err != nil {
			ep.ln.Close()
			return nil, err
		}
	}
	// Publish the initial snapshots (empty, or the recovered queue) before
	// the first connection can arrive.
	for _, sh := range s.shards {
		sh.publishLocked()
	}
	ep.start(s.handle, s.gone)
	return s, nil
}

// shardFor maps a task to its shard of record. Every piece of a contract's
// state lives on the one shard its ID hashes to.
func (s *Server) shardFor(id task.ID) *bookShard {
	return s.shards[uint64(id)%uint64(len(s.shards))]
}

// snapshotLocked captures the shard's scheduling state as an immutable
// quote snapshot, copying the queued tasks so later book mutations never
// show through — the one publisher that must copy, since the simulator's
// view is single-threaded and aliases its queue. Callers must hold sh.mu
// (or run before the accept loop starts).
func (sh *bookShard) snapshotLocked() *site.QuoteSnapshot {
	s := sh.s
	qs := &site.QuoteSnapshot{
		Version:      sh.version.Load(),
		Procs:        s.cfg.Processors,
		Policy:       s.cfg.Policy,
		DiscountRate: s.cfg.DiscountRate,
	}
	if len(sh.pending) > 0 {
		qs.Pending = make([]*task.Task, len(sh.pending))
		qs.Seqs = make([]uint64, len(sh.pending))
		for i, c := range sh.pending {
			cp := *c.t
			qs.Pending[i] = &cp
			qs.Seqs[i] = c.seq
		}
	}
	if len(sh.running) > 0 {
		qs.Running = make([]site.RunningSlot, 0, len(sh.running))
		for _, c := range sh.running {
			qs.Running = append(qs.Running, site.RunningSlot{Start: c.t.Start, Runtime: c.t.Runtime})
		}
	}
	return qs
}

// publishLocked rebuilds and publishes the shard's quote snapshot. Callers
// must hold sh.mu (or run before the accept loop starts).
func (sh *bookShard) publishLocked() {
	sh.board.Publish(sh.snapshotLocked())
	sh.s.m.snapshotPublishes.Inc()
}

// bumpLocked marks the shard's scheduling state changed and republishes its
// snapshot. Every mutation of pending/running must bump before releasing
// sh.mu, or an award could validate its optimistic quote against a version
// that no longer describes the live state. Callers must hold sh.mu.
func (sh *bookShard) bumpLocked() {
	sh.version.Add(1)
	sh.publishLocked()
}

// mergedSnapshot assembles the site-wide quotable view: the k-way merge of
// every shard's published snapshot, plus the parts themselves for award
// validation. With one shard the snapshot is the published part untouched
// and parts is nil.
func (s *Server) mergedSnapshot() (*site.QuoteSnapshot, []*site.QuoteSnapshot) {
	if len(s.shards) == 1 {
		return s.shards[0].board.Load(), nil
	}
	parts := make([]*site.QuoteSnapshot, len(s.shards))
	for i, sh := range s.shards {
		parts[i] = sh.board.Load()
	}
	return site.MergeQuoteSnapshots(parts), parts
}

// boardsCurrent reports whether every shard's live version still matches
// the snapshot part it published — the sharded form of the award-time
// optimistic-quote validation. Shards other than the caller's own (whose
// lock is held) may move immediately after the check; that window is the
// same one any lock-free quote already has, and admission re-quotes under
// the shard lock when it matters.
func (s *Server) boardsCurrent(snap *site.QuoteSnapshot, parts []*site.QuoteSnapshot) bool {
	if parts == nil {
		return snap != nil && s.shards[0].version.Load() == snap.Version
	}
	for i, sh := range s.shards {
		if parts[i] == nil || sh.version.Load() != parts[i].Version {
			return false
		}
	}
	return true
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
	for _, sh := range s.shards {
		sh.mu.Lock()
		for len(sh.pending) > 0 {
			sh.closeLocked(sh.pending[0], obs.OutcomeAbandoned, s.now(), 0, "server closed")
		}
		for _, c := range sh.running {
			if c.timer.Stop() {
				// The callback will never run; release its drain slot.
				s.timerWG.Done()
				c.timer = nil
				sh.closeLocked(c, obs.OutcomeAbandoned, s.now(), 0, "server closed mid-run")
			}
		}
		s.syncGauges()
		sh.mu.Unlock()
	}
}

// now returns the current time in simulation units since server start.
func (s *Server) now() float64 {
	return float64(time.Since(s.start)) / float64(s.cfg.TimeScale)
}

// syncGauges refreshes the site-wide queue-depth and running-task gauges
// after a scheduler state change.
func (s *Server) syncGauges() {
	s.m.Depth(int(s.nQueued.Load()), int(s.nRunning.Load()))
}

// traceLocked emits lifecycle event e for the contract c, filling in the
// contract's identity and request ID and the site-wide queue state.
// Callers must hold sh.mu.
func (sh *bookShard) traceLocked(c *contract, e obs.TraceEvent) {
	s := sh.s
	if s.cfg.Tracer == nil {
		return
	}
	e.Task, e.Req, e.Site = uint64(c.t.ID), c.req, s.cfg.SiteID
	e.Queued, e.Running = int(s.nQueued.Load()), int(s.nRunning.Load())
	s.cfg.Tracer.Emit(e)
}

// bookLocked opens c, unsynced or queued, at the tail of the shard's queue
// with the next global booking stamp. Callers must hold sh.mu.
func (sh *bookShard) bookLocked(c *contract) {
	c.seq = sh.s.seq.Add(1)
	sh.open[c.t.ID] = c
	sh.pending = append(sh.pending, c)
	if c.state == stateUnsynced {
		sh.unsynced[c.t.ID] = c
	}
	sh.s.nQueued.Add(1)
}

// unqueueLocked drops c from the shard's queue, found by its booking stamp
// (the queue is in strictly increasing stamp order). Callers must hold
// sh.mu.
func (sh *bookShard) unqueueLocked(c *contract) {
	i := sort.Search(len(sh.pending), func(i int) bool { return sh.pending[i].seq >= c.seq })
	last := len(sh.pending) - 1
	copy(sh.pending[i:], sh.pending[i+1:])
	sh.pending[last] = nil // the backing array must not keep a closed record alive
	sh.pending = sh.pending[:last]
	sh.s.nQueued.Add(-1)
}

// syncedLocked accepts c once its journal record is durable: the contract
// leaves its group-commit window and becomes dispatchable. The caller
// broadcasts syncCond. Callers must hold sh.mu.
func (sh *bookShard) syncedLocked(c *contract) {
	delete(sh.unsynced, c.t.ID)
	c.state = stateQueued
	sh.acceptLocked(c)
}

// closeLocked ends the open contract c at time at with the realized price:
// settled by its run, defaulted in recovery, abandoned by shutdown or its
// client, or refused after a failed sync. The record leaves the book and
// its indexes; a settled or defaulted contract leaves its compact
// settlement behind for status queries; and the outcome is booked once
// into the stats, counters, ledger and trace. Callers must hold sh.mu and
// do their own journaling.
func (sh *bookShard) closeLocked(c *contract, outcome string, at, price float64, detail string) {
	s := sh.s
	t := c.t
	delete(sh.open, t.ID)
	switch c.state {
	case stateUnsynced:
		delete(sh.unsynced, t.ID)
		sh.syncCond.Broadcast()
		sh.unqueueLocked(c)
	case stateQueued:
		sh.unqueueLocked(c)
	case stateRunning:
		delete(sh.running, t.ID)
		s.nRunning.Add(-1)
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
		sh.traceLocked(c, obs.TraceEvent{Stage: obs.StageAbandon, T: s.now(), Detail: detail})
	case obs.OutcomeSettled:
		event = "completed"
		sh.settled[t.ID] = settlement{T: at, Price: price}
		s.mu.Lock()
		s.Completed++
		s.Revenue += price
		s.mu.Unlock()
		s.m.completed.Inc()
		s.m.Settle(t.Cohort, price)
		s.m.lateness.Observe(at - c.terms.ExpectedCompletion)
		sh.traceLocked(c, obs.TraceEvent{Stage: obs.StageComplete, T: at, Value: price, Dur: at - t.Start,
			Cohort: t.Cohort, Client: t.Client})
	case obs.OutcomeDefaulted:
		sh.settled[t.ID] = settlement{Defaulted: true, T: at, Price: price}
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
// settle into the void. Only a shard that lost a queued task republishes:
// orphaning a running task changes no scheduling state, and an idle
// disconnect must not invalidate every in-flight optimistic award.
func (s *Server) dropOwner(sc *serverConn) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		removed := false
		for id, c := range sh.open {
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
			sh.closeLocked(c, obs.OutcomeAbandoned, now, 0, "client disconnected")
			if err := s.appendRecord(contractRecord{Kind: recAbandon, TaskID: id, T: now, Reason: "client disconnected"}); err != nil {
				s.log.Warn("journal abandon record failed", "task", id, "err", err.Error())
			}
			s.log.Info("dropped queued task: client disconnected", "task", id)
			removed = true
		}
		if removed {
			s.syncGauges()
			sh.bumpLocked()
		}
		sh.mu.Unlock()
	}
}

// handleBid quotes a bid against the current candidate schedule without
// committing resources. It ranks the bid against the merged published
// snapshots with zero lock acquisitions: quoting is a pure read, so any
// number of bids evaluate in parallel with each other and with the
// scheduler. Only bookkeeping (reject counters) briefly takes the stats
// lock.
func (s *Server) handleBid(env Envelope) Envelope {
	bid, err := env.Bid()
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
	snap, _ := s.mergedSnapshot()
	s.m.snapshotQuotes.Inc()
	q, err := snap.Quote(s.now(), s.bidTask(bid))
	if err != nil {
		return Envelope{Type: TypeError, Reason: err.Error()}
	}
	if floor, reason := s.shed.evaluate(int(s.nQueued.Load()), q.ExpectedYield); reason != "" {
		return s.shedReject(bid, reason, fmt.Sprintf("yield %.2f below floor %.2f at depth %d", q.ExpectedYield, floor, s.nQueued.Load()), floor)
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
// own request ID. Queue and running counts come from the site-wide atomic
// mirrors, so no lock is needed.
func (s *Server) traceBid(stage string, bid market.Bid, value float64, detail string) {
	if s.cfg.Tracer == nil {
		return
	}
	s.cfg.Tracer.Emit(obs.TraceEvent{
		Stage:   stage,
		Task:    uint64(bid.TaskID),
		Req:     bid.ReqID,
		Site:    s.cfg.SiteID,
		T:       s.now(),
		Value:   value,
		Queued:  int(s.nQueued.Load()),
		Running: int(s.nRunning.Load()),
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
// The award is optimistic-then-validate: the quote is computed
// lock-free against the merged published snapshots, and only the task's own
// shard lock is taken to check that every shard's live version still
// matches its part — a mismatch means the scheduling state moved underneath
// the quote, and the award re-quotes under the shard lock. The journal
// append happens under the lock (fixing the contract's place in the record
// order), but the fsync wait happens outside it via SyncBarrier, so
// concurrent awards share one group-commit fsync instead of serializing the
// disk behind the lock. Until the barrier lands, the contract's record is in
// state unsynced: quotes price it, dispatch skips it, and duplicate awards
// or queries for it wait — so nothing observable (an ack, a running task,
// an adopted owner) can outrace the disk.
func (s *Server) handleAward(env Envelope, sc *serverConn) Envelope {
	bid, err := env.Bid()
	if err != nil {
		return Envelope{Type: TypeError, Reason: err.Error()}
	}
	// Optimistic quote, before any lock.
	snap, parts := s.mergedSnapshot()
	s.m.snapshotQuotes.Inc()
	q, qerr := snap.Quote(s.now(), s.bidTask(bid))

	sh := s.shardFor(bid.TaskID)
	sh.mu.Lock()
	// An award racing a contract still inside a group-commit window waits
	// for the barrier: the book cannot answer until the journal does.
	sh.waitSyncedLocked(bid.TaskID)
	// Idempotency is keyed off the contract book, which the journal rebuilds
	// across restarts: a client retrying an award after a site crash gets
	// its standing terms back, not a second contract.
	if c := sh.open[bid.TaskID]; c != nil {
		c.owner = sc // the retrying connection owns the settlement now
		if bid.ReqID != "" {
			c.req = bid.ReqID
		}
		sh.mu.Unlock()
		return contractReply(c.terms)
	}
	// A retried award whose contract already settled (the run beat the
	// retry) reports the closed contract instead of executing it twice.
	if st, ok := sh.settled[bid.TaskID]; ok {
		sh.mu.Unlock()
		return s.statusEnvelope(bid.TaskID, st)
	}
	// Validate the optimistic quote: if no shard's scheduling state has
	// moved since its snapshot was published, the lock-free quote is what a
	// locked re-quote would compute and is honored as-is.
	if qerr == nil && s.boardsCurrent(snap, parts) {
		s.m.validateMatch.Inc()
	} else {
		s.m.validateMismatch.Inc()
		s.m.lockedQuotes.Inc()
		q, qerr = sh.quoteLocked(bid)
	}
	if qerr != nil {
		sh.mu.Unlock()
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
		sh.mu.Unlock()
		return Envelope{Type: TypeReject, TaskID: bid.TaskID, SiteID: s.cfg.SiteID,
			Reason: "mix changed since proposal"}
	}
	// The overload valve applies at award exactly as at bid: quoting never
	// reserves a slot, so this is the only gate that actually bounds the
	// book. Deadline expiry deliberately does not apply — an award is a
	// commitment the client already made, not a quote that can go stale.
	if floor, reason := s.shed.evaluate(int(s.nQueued.Load()), q.ExpectedYield); reason != "" {
		sh.mu.Unlock()
		return s.shedReject(bid, reason, fmt.Sprintf("yield %.2f below floor %.2f at depth %d", q.ExpectedYield, floor, s.nQueued.Load()), floor)
	}
	s.shed.observeAdmit(q.ExpectedYield)
	t := s.bidTask(bid)
	t.State = task.Queued
	sb := market.ServerBid{SiteID: s.cfg.SiteID, TaskID: t.ID,
		ExpectedCompletion: q.ExpectedCompletion, ExpectedPrice: q.ExpectedYield}
	// Append under the shard lock — the record order matches the book order
	// within the shard — but do not wait for the disk here.
	idx, journaled, jerr := s.appendRecordIdx(contractRecord{
		Kind: recContract, TaskID: t.ID, Req: bid.ReqID,
		Arrival: t.Arrival, Runtime: t.Runtime, Value: t.Value,
		Decay: t.Decay, Bound: EncodeBound(t.Bound),
		ExpectedCompletion: sb.ExpectedCompletion, ExpectedPrice: sb.ExpectedPrice,
		Cohort: t.Cohort, Client: t.Client,
	})
	if jerr != nil {
		sh.mu.Unlock()
		s.log.Warn("journal write failed, refusing award", "task", t.ID, "err", jerr.Error())
		return Envelope{Type: TypeError, Reason: "site journal unavailable"}
	}
	c := &contract{t: t, terms: sb, owner: sc, req: bid.ReqID, state: stateQueued}
	if journaled {
		c.state, c.idx = stateUnsynced, idx
	}
	sh.bookLocked(c)
	s.syncGauges()
	sh.traceLocked(c, obs.TraceEvent{Stage: obs.StageContract, T: s.now()})
	sh.bumpLocked()
	if !journaled {
		// Memory-only site: nothing to wait for, finish the award inline.
		sh.acceptLocked(c)
		sh.mu.Unlock()
		s.dispatch()
		return contractReply(sb)
	}
	sh.mu.Unlock()

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
// standing terms, and the acceptance log line. Callers must hold sh.mu.
func (sh *bookShard) acceptLocked(c *contract) {
	s := sh.s
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
// window. Callers must hold sh.mu.
func (sh *bookShard) waitSyncedLocked(id task.ID) {
	for sh.unsynced[id] != nil {
		sh.syncCond.Wait()
	}
}

// finishDurableAwards completes the bookkeeping for every award the
// journal's durability frontier now covers: accepted counters, the
// acceptance log line, and one dispatch for the whole batch. The first
// finisher of a group-commit round sweeps every shard for everyone in it;
// awards that find the swept frontier already past their record skip the
// locks entirely, so the post-barrier cost is per round, not per award.
func (s *Server) finishDurableAwards(idx uint64) {
	if s.swept.Load() > idx {
		return
	}
	durableIdx := s.j.Durable()
	finished := false
	for _, sh := range s.shards {
		sh.mu.Lock()
		shardFinished := false
		for _, c := range sh.unsynced {
			if c.idx >= durableIdx {
				continue
			}
			sh.syncedLocked(c)
			shardFinished = true
		}
		if shardFinished {
			sh.syncCond.Broadcast()
			finished = true
		}
		sh.mu.Unlock()
	}
	if finished {
		s.dispatch()
	}
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
	sh := s.shardFor(id)
	sh.mu.Lock()
	booked := sh.unsynced[id] == c
	if c.state != stateUnsynced || s.j.Durable() > c.idx {
		if booked {
			sh.syncedLocked(c)
			sh.syncCond.Broadcast()
		}
		sh.mu.Unlock()
		if booked {
			s.dispatch()
		}
		return false
	}
	now := s.now()
	if booked {
		sh.closeLocked(c, outcomeRefused, now, 0, "")
		s.syncGauges()
		sh.bumpLocked()
	}
	if aerr := s.appendRecord(contractRecord{Kind: recAbandon, TaskID: id, T: now, Reason: "award refused: journal sync failed"}); aerr != nil {
		s.log.Warn("journal abandon record failed", "task", id, "err", aerr.Error())
	}
	sh.mu.Unlock()
	s.log.Warn("journal sync failed, refusing award", "task", id, "err", serr.Error())
	return true
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

// quoteLocked evaluates a bid with the shard lock held: the shard's own
// part is rebuilt from its live state, the other shards contribute their
// latest published snapshots, and the merge is priced exactly as the
// lock-free path would. With one shard this is the full locked quote of
// the pre-shard server, bit for bit.
func (sh *bookShard) quoteLocked(bid market.Bid) (admission.Quote, error) {
	s := sh.s
	// Live servers quote at wall-clock instants, so consecutive quotes
	// never share a snapshot's cached base candidate: every evaluation
	// ranks the book afresh (one ranking plus an insertion when the policy
	// has a key, a full build otherwise), counted as a cache miss so the
	// site_quote_reuse series is comparable with the simulator's.
	s.m.QuoteReuse(false)
	probe := s.bidTask(bid)
	if len(s.shards) == 1 {
		return sh.snapshotLocked().Quote(s.now(), probe)
	}
	parts := make([]*site.QuoteSnapshot, len(s.shards))
	for i, other := range s.shards {
		if other == sh {
			parts[i] = sh.snapshotLocked()
		} else {
			parts[i] = other.board.Load()
		}
	}
	return site.MergeQuoteSnapshots(parts).Quote(s.now(), probe)
}

// dispatch starts pending tasks while processors are free. The planner
// locks every shard (ascending, under dispatchMu) and plans over the
// merged queue in global arrival order, so the processor pool is a single
// site-wide resource and start decisions are invariant in the shard count.
// Each started task's completion timer is tracked so Close can cancel it
// or wait for its callback to drain.
func (s *Server) dispatch() {
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	s.dispatchAllLocked()
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
}

// dispatchAllLocked is the planner body. Callers must hold dispatchMu and
// every shard lock.
func (s *Server) dispatchAllLocked() {
	if s.ep.isClosed() {
		return
	}
	now := s.now()
	free := s.cfg.Processors - int(s.nRunning.Load())
	// Contracts still inside a group-commit window are quotable but not
	// startable: if their sync fails the award is rolled back, and rollback
	// must only ever touch the queue, never a running timer.
	queued := make([]*contract, 0, s.nQueued.Load())
	for _, sh := range s.shards {
		for _, c := range sh.pending {
			if c.state == stateQueued {
				queued = append(queued, c)
			}
		}
	}
	if len(s.shards) > 1 {
		// Merge the shards' queues back into global arrival order.
		sort.Slice(queued, func(i, j int) bool { return queued[i].seq < queued[j].seq })
	}
	eligible := make([]*task.Task, len(queued))
	for i, c := range queued {
		eligible[i] = c.t
	}
	starts, ranks := core.PlanStarts(s.cfg.Policy, now, free, eligible)
	if ranks > 0 {
		s.m.RankOps(ranks)
	}
	touched := make(map[*bookShard]struct{}, len(starts))
	for _, t := range starts {
		sh := s.shardFor(t.ID)
		c := sh.open[t.ID]
		sh.unqueueLocked(c)
		c.state = stateRunning
		t.State = task.Running
		t.Start = now
		sh.running[t.ID] = c
		s.nRunning.Add(1)
		if err := s.appendRecord(contractRecord{Kind: recStart, TaskID: t.ID, T: now}); err != nil {
			// Non-fatal: a lost start record only weakens the crash regime
			// (the task recovers as queued instead of crash-preempted).
			s.log.Warn("journal start record failed", "task", t.ID, "err", err.Error())
		}
		s.syncGauges()
		sh.traceLocked(c, obs.TraceEvent{Stage: obs.StageStart, T: s.now()})
		s.log.Info("running task", "task", t.ID, "runtime", t.Runtime)
		dur := time.Duration(t.Runtime * float64(s.cfg.TimeScale))
		s.timerWG.Add(1)
		c.timer = time.AfterFunc(dur, func() {
			defer s.timerWG.Done()
			s.complete(c)
		})
		touched[sh] = struct{}{}
	}
	for sh := range touched {
		sh.bumpLocked()
	}
}

// complete settles a running contract when its completion timer fires.
func (s *Server) complete(c *contract) {
	t := c.t
	sh := s.shardFor(t.ID)
	sh.mu.Lock()
	c.timer = nil
	if s.ep.isClosed() {
		// Shutdown racing the timer: abandon rather than settle, so no
		// settlement is sent after Close returns.
		sh.closeLocked(c, obs.OutcomeAbandoned, s.now(), 0, "server closed mid-run")
		s.syncGauges()
		sh.mu.Unlock()
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
	sh.closeLocked(c, obs.OutcomeSettled, now, t.Yield, "")
	s.syncGauges()
	sh.bumpLocked()
	// A settle record under FsyncAlways must be durable before the
	// settlement push, as it was when Append synced inline; it rides the
	// shared group-commit barrier, outside the lock.
	settleSync := settleJournaled && s.cfg.Fsync == durable.FsyncAlways
	sh.mu.Unlock()

	s.dispatch()

	if settleSync {
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
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// A query racing a contract inside a group-commit window waits for the
	// barrier: adopting an owner for a contract that may yet be refused
	// would leak an observable effect past a failed sync.
	sh.waitSyncedLocked(id)
	if st, ok := sh.settled[id]; ok {
		return s.statusEnvelope(id, st)
	}
	if c := sh.open[id]; c != nil {
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
