package wire

import (
	"repro/internal/obs"
)

// Metric families of the network layer. Names and label conventions are
// documented in DESIGN.md §8; internal/site reuses the site_* families so
// simulated and live schedulers expose identical series.
//
//	wire_rpc_total{site,type}        requests handled, by message type
//	wire_rpc_seconds{site,type}      request handling latency
//	wire_connections{site}           live client connections
//	wire_idle_reaps_total{site}      connections closed by the idle timeout
//	wire_retries_total{role}         exchange retries after transient errors
//	wire_site_dropouts_total{role}   sites dropped from an exchange
//	site_tasks_total{site,event}     accepted/rejected/completed/abandoned
//	site_queue_depth{site}           pending tasks
//	site_running_tasks{site}         tasks occupying processors
//	site_admission_slack{site}       slack of quoted bids (finite only)
//	site_yield_total{site}           realized positive yield
//	site_penalty_total{site}         realized penalties (absolute value)
//	site_dispatch_rank_ops{site}     priority-ranking passes spent dispatching
//	site_quote_reuse{site,result}    quote evaluations by cache outcome (hit/miss)
//	market_negotiations_total{role,outcome}  placed/declined/failed exchanges
//	market_settlements_total{role,result}    delivered/undeliverable/relayed
//	market_settlement_lateness{site} completion minus contracted completion
//
// Durability and recovery families (DESIGN.md §10), emitted by sites with
// a contract journal:
//
//	site_recovery_seconds{site}                time spent replaying the journal at start
//	site_recovery_records_replayed{site}       whole records recovered from the journal
//	site_recovery_torn_bytes{site}             torn tail bytes truncated during recovery
//	site_contracts_recovered_total{site}       open contracts honored after a restart
//	site_contracts_defaulted_total{site}       contracts closed with a penalty in recovery
//
// Concurrent request-path families (DESIGN.md §11): the lock-free quote
// snapshot and the group-commit journal batcher:
//
//	site_quote_snapshot_publishes_total{site}        snapshots published to the board
//	site_quote_snapshot_quotes_total{site,path}      quotes answered, by path (snapshot/locked)
//	site_quote_snapshot_validate_total{site,result}  award re-validations (match/mismatch)
//	site_journal_batch_syncs_total{site}             group-commit fsync rounds
//	site_journal_batch_records_total{site}           records made durable by those rounds
//	wire_frames_oversized_total{site}                inbound frames over the configured cap
//
// Sharded-book and codec-negotiation families (DESIGN.md §14), added with
// the multi-core site sharding and the versioned wire handshake:
//
//	site_shard_queue_depth{site,shard}       pending tasks per book shard
//	site_shard_running_tasks{site,shard}     running tasks per book shard
//	site_shard_tasks_total{site,shard,event} accepted/completed per book shard
//	site_journal_batch_streams_total{site}   distinct shard streams covered by group-commit rounds
//	wire_codec_negotiated_total{site,codec}  connections by negotiated codec ("json-v1" = pre-handshake client)
//
// Economic ledger and cohort-attribution families (DESIGN.md §13). The
// yield summaries are gauges despite the _total suffix: realized yield can
// move down (penalties are negative settlements), which a counter would
// silently drop. The cohort splits mirror the simulator's obsRecorder so a
// live site and a sitesim run chart on the same dashboard:
//
//	site_yield_expected_total{site}             sum of quoted prices over ledger entries
//	site_yield_realized_total{site}             sum of realized yields over ledger entries
//	site_penalty_exposure{site}                 quoted value still open (at risk) on the book
//	site_cohort_tasks_total{site,cohort,event}  task outcomes split by trace-v2 cohort
//	site_cohort_yield_total{site,cohort,kind}   realized yield/penalty split by cohort
//
// Fleet-resilience families (DESIGN.md §15): the server's value-aware
// overload valve, the deadline budget, and the broker's per-site health
// machinery:
//
//	site_shed_total{site,reason}              bids refused by the overload valve (book_full/value_floor/inflight/deadline)
//	site_shed_floor{site}                     marginal-yield floor currently in force
//	wire_deadline_expired_total{site}         bids refused because their deadline budget was spent on arrival
//	broker_circuit_state{site}                per-site breaker state (0 closed, 1 half-open, 2 open)
//	broker_circuit_transitions_total{site,to} breaker transitions by destination state
//	broker_hedge_total{site}                  hedged quote RPCs issued against the site
//	broker_site_retry_exhausted_total{site}   exchanges abandoned with the site's retry budget empty
//	broker_parked_settlements{}               settlements parked for disconnected owners
//	broker_parked_evicted_total{}             parked settlements evicted by ring overflow
//	broker_parked_recovered_total{}           parked settlements recovered by a client query
//
// Digest-routing and broker-sharding families (DESIGN.md §16): the site's
// load-digest pushes, the broker's staleness-aware digest table, top-k
// candidate selection, and the consistent-hash peer ring:
//
//	site_digest_push_total{site}        load digests pushed to subscribed connections
//	broker_digest_age_seconds{site}     age of each site's last digest in the broker's table
//	broker_routed_total{site}           bids quoted to each site after routing
//	broker_route_candidates{}           candidate sites quoted per bid (histogram)
//	broker_route_fallback_total{}       bids routed by full fan-out for want of fresh digests
//	broker_peer_forwarded_total{peer}   envelopes forwarded to the owning broker shard

// slackBuckets cover the admission slack range seen in the paper's
// regimes: deeply negative (reject territory) through comfortable.
var slackBuckets = []float64{-1000, -250, -100, -50, -10, 0, 10, 25, 50, 100, 250, 500, 1000, 5000}

// latenessBuckets cover settlement lateness in simulation units; negative
// means the task finished ahead of its contracted completion.
var latenessBuckets = []float64{-100, -50, -20, -10, -5, -1, 0, 1, 2, 5, 10, 20, 50, 100, 250, 1000}

// serverMetrics is a site server's bound instruments. The zero value (all
// nil) is a valid no-op set, which is what a nil registry yields.
type serverMetrics struct {
	rpcBid       *obs.Counter
	rpcAward     *obs.Counter
	rpcBidSec    *obs.Histogram
	rpcAwardSec  *obs.Histogram
	connections  *obs.Gauge
	idleReaps    *obs.Counter
	accepted     *obs.Counter
	rejected     *obs.Counter
	completed    *obs.Counter
	abandoned    *obs.Counter
	queueDepth   *obs.Gauge
	runningTasks *obs.Gauge
	slack        *obs.Histogram
	yield        *obs.Counter
	penalty      *obs.Counter
	rankOps      *obs.Counter
	quoteHits    *obs.Counter
	quoteMisses  *obs.Counter
	settleOK     *obs.Counter
	settleLost   *obs.Counter
	lateness     *obs.Histogram

	rpcQuery          *obs.Counter
	recovered         *obs.Counter
	defaulted         *obs.Counter
	recoverySeconds   *obs.Gauge
	recoveryRecords   *obs.Gauge
	recoveryTornBytes *obs.Gauge

	snapshotPublishes *obs.Counter
	snapshotQuotes    *obs.Counter
	lockedQuotes      *obs.Counter
	validateMatch     *obs.Counter
	validateMismatch  *obs.Counter
	batchSyncs        *obs.Counter
	batchRecords      *obs.Counter
	batchStreams      *obs.Counter
	framesOversized   *obs.Counter

	// Sharded-book and codec-negotiation families. The shard vecs are bound
	// per shard at server construction; codecs is bound per negotiated name.
	shardQueue *obs.GaugeVec
	shardRun   *obs.GaugeVec
	shardTasks *obs.CounterVec
	codecs     *obs.CounterVec

	// Trace-v2 cohort attribution: outcomes and yields split by workload
	// cohort, same families the simulator's obsRecorder feeds.
	site        string
	cohortTasks *obs.CounterVec
	cohortYield *obs.CounterVec

	// Fleet-resilience instruments: the overload valve and the deadline
	// budget (DESIGN.md §15).
	shed            *obs.CounterVec
	shedFloor       *obs.Gauge
	deadlineExpired *obs.Counter

	// Digest-routing family (DESIGN.md §16): load digests pushed to
	// subscribed connections.
	digestPushes *obs.Counter
}

func newServerMetrics(reg *obs.Registry, site string) serverMetrics {
	rpc := reg.Counter("wire_rpc_total", "RPC requests handled, by message type.", "site", "type")
	// 10µs … 1.3s: a bid is handled in tens of microseconds and a durable
	// award in about half a millisecond, both below the default buckets'
	// 1ms floor.
	rpcSec := reg.Histogram("wire_rpc_seconds", "RPC handling latency in seconds.", obs.ExponentialBuckets(10e-6, 2, 18), "site", "type")
	tasks := reg.Counter("site_tasks_total", "Task outcomes at this site.", "site", "event")
	settles := reg.Counter("market_settlements_total", "Settlement deliveries.", "role", "result")
	quotes := reg.Counter("site_quote_reuse", "Quote evaluations by base-candidate cache outcome.", "site", "result")
	snapQuotes := reg.Counter("site_quote_snapshot_quotes_total", "Quotes answered, by evaluation path.", "site", "path")
	validates := reg.Counter("site_quote_snapshot_validate_total", "Award-time snapshot re-validations.", "site", "result")
	return serverMetrics{
		rpcBid:       rpc.With(site, TypeBid),
		rpcAward:     rpc.With(site, TypeAward),
		rpcBidSec:    rpcSec.With(site, TypeBid),
		rpcAwardSec:  rpcSec.With(site, TypeAward),
		connections:  reg.Gauge("wire_connections", "Live client connections.", "site").With(site),
		idleReaps:    reg.Counter("wire_idle_reaps_total", "Connections closed by the idle timeout.", "site").With(site),
		accepted:     tasks.With(site, "accepted"),
		rejected:     tasks.With(site, "rejected"),
		completed:    tasks.With(site, "completed"),
		abandoned:    tasks.With(site, "abandoned"),
		queueDepth:   reg.Gauge("site_queue_depth", "Pending (queued, not running) tasks.", "site").With(site),
		runningTasks: reg.Gauge("site_running_tasks", "Tasks occupying processors.", "site").With(site),
		slack:        reg.Histogram("site_admission_slack", "Admission slack of quoted bids (finite values only).", slackBuckets, "site").With(site),
		yield:        reg.Counter("site_yield_total", "Realized positive yield.", "site").With(site),
		penalty:      reg.Counter("site_penalty_total", "Realized penalties (absolute value).", "site").With(site),
		rankOps:      reg.Counter("site_dispatch_rank_ops", "Full priority-ranking passes spent dispatching.", "site").With(site),
		quoteHits:    quotes.With(site, "hit"),
		quoteMisses:  quotes.With(site, "miss"),
		settleOK:     settles.With("site", "delivered"),
		settleLost:   settles.With("site", "undeliverable"),
		lateness:     reg.Histogram("market_settlement_lateness", "Completion time minus contracted completion, in simulation units.", latenessBuckets, "site").With(site),

		rpcQuery:          rpc.With(site, TypeQuery),
		snapshotPublishes: reg.Counter("site_quote_snapshot_publishes_total", "Quote snapshots published to the lock-free board.", "site").With(site),
		snapshotQuotes:    snapQuotes.With(site, "snapshot"),
		lockedQuotes:      snapQuotes.With(site, "locked"),
		validateMatch:     validates.With(site, "match"),
		validateMismatch:  validates.With(site, "mismatch"),
		batchSyncs:        reg.Counter("site_journal_batch_syncs_total", "Group-commit fsync rounds.", "site").With(site),
		batchRecords:      reg.Counter("site_journal_batch_records_total", "Journal records made durable by group-commit rounds.", "site").With(site),
		batchStreams:      reg.Counter("site_journal_batch_streams_total", "Distinct shard journal streams covered by group-commit rounds.", "site").With(site),
		framesOversized:   reg.Counter("wire_frames_oversized_total", "Inbound frames rejected for exceeding the configured size cap.", "site").With(site),
		shardQueue:        reg.Gauge("site_shard_queue_depth", "Pending (queued, not running) tasks per book shard.", "site", "shard"),
		shardRun:          reg.Gauge("site_shard_running_tasks", "Tasks occupying processors, by owning book shard.", "site", "shard"),
		shardTasks:        reg.Counter("site_shard_tasks_total", "Task outcomes per book shard.", "site", "shard", "event"),
		codecs:            reg.Counter("wire_codec_negotiated_total", "Connections by negotiated wire codec; json-v1 means a pre-handshake v1 client.", "site", "codec"),
		recovered:         reg.Counter("site_contracts_recovered_total", "Open contracts honored after a restart.", "site").With(site),
		defaulted:         reg.Counter("site_contracts_defaulted_total", "Contracts closed with a penalty during crash recovery.", "site").With(site),
		recoverySeconds:   reg.Gauge("site_recovery_seconds", "Time spent replaying the contract journal at startup.", "site").With(site),
		recoveryRecords:   reg.Gauge("site_recovery_records_replayed", "Whole journal records replayed at startup.", "site").With(site),
		recoveryTornBytes: reg.Gauge("site_recovery_torn_bytes", "Torn tail bytes truncated during journal recovery.", "site").With(site),

		site:        site,
		cohortTasks: reg.Counter("site_cohort_tasks_total", "Task outcomes split by trace-v2 workload cohort.", "site", "cohort", "event"),
		cohortYield: reg.Counter("site_cohort_yield_total", "Realized yield and penalties split by trace-v2 workload cohort.", "site", "cohort", "kind"),

		shed:            reg.Counter("site_shed_total", "Bids refused by the overload valve, by reason.", "site", "reason"),
		shedFloor:       reg.Gauge("site_shed_floor", "Marginal-yield floor currently enforced by the overload valve.", "site").With(site),
		deadlineExpired: reg.Counter("wire_deadline_expired_total", "Bids refused because their deadline budget was already spent on arrival.", "site").With(site),

		digestPushes: reg.Counter("site_digest_push_total", "Load digests pushed to subscribed connections.", "site").With(site),
	}
}

// shedEvent books one shed refusal against its reason.
func (m *serverMetrics) shedEvent(reason string) {
	m.shed.With(m.site, reason).Inc()
}

// cohortEvent books one task outcome against its workload cohort
// (CohortLabel maps unlabeled tasks to "none").
func (m *serverMetrics) cohortEvent(cohort, event string) {
	m.cohortTasks.With(m.site, obs.CohortLabel(cohort), event).Inc()
}

// codecNegotiated counts one connection settling on a wire codec. The
// codecLabelV1 pseudo-name records clients that never sent a hello.
func (m *serverMetrics) codecNegotiated(codec string) {
	m.codecs.With(m.site, codec).Inc()
}

// observeYield books a settlement into the yield/penalty counters and
// their cohort splits, matching the simulator recorder's sign convention:
// non-negative settles as realized yield, negative as penalty (absolute).
func (m *serverMetrics) observeYield(cohort string, v float64) {
	lbl := obs.CohortLabel(cohort)
	if v >= 0 {
		m.yield.Add(v)
		m.cohortYield.With(m.site, lbl, "realized").Add(v)
	} else {
		m.penalty.Add(-v)
		m.cohortYield.With(m.site, lbl, "penalty").Add(-v)
	}
}

// exchangeObs carries the negotiation-side instruments and log/trace sinks
// through callWithRetry and proposeAll, shared by the client-side
// Negotiator (role "client") and the broker (role "broker").
type exchangeObs struct {
	log      *obs.Logger
	tracer   *obs.Tracer
	retries  *obs.Counter
	dropouts *obs.Counter
	placed   *obs.Counter
	declined *obs.Counter
	failed   *obs.Counter
}

// trace forwards a lifecycle event to the bound tracer, if any.
func (eo exchangeObs) trace(e obs.TraceEvent) { eo.tracer.Emit(e) }

func newExchangeObs(reg *obs.Registry, log *obs.Logger, tracer *obs.Tracer, role string) exchangeObs {
	neg := reg.Counter("market_negotiations_total", "Negotiation outcomes.", "role", "outcome")
	return exchangeObs{
		log:      log,
		tracer:   tracer,
		retries:  reg.Counter("wire_retries_total", "Exchange retries after transient failures.", "role").With(role),
		dropouts: reg.Counter("wire_site_dropouts_total", "Sites dropped from an exchange after exhausting retries.", "role").With(role),
		placed:   neg.With(role, "placed"),
		declined: neg.With(role, "declined"),
		failed:   neg.With(role, "failed"),
	}
}
