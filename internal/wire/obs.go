package wire

import (
	"repro/internal/obs"
	"repro/internal/site"
)

// The metric families of the network layer — names, kinds, labels and
// meaning — are listed once, in DESIGN.md's metric tables (§8 and the
// per-section tables of §10–§16), which the repository's doc-lint test
// checks against the registrations in both directions. The site_* families
// shared with the simulator are defined by site.Instruments.

// latenessBuckets cover settlement lateness in simulation units; negative
// means the task finished ahead of its contracted completion.
var latenessBuckets = []float64{-100, -50, -20, -10, -5, -1, 0, 1, 2, 5, 10, 20, 50, 100, 250, 1000}

// serverMetrics is a site server's bound instruments: the site_* set it
// shares with the simulator, plus the server's own. A nil registry yields
// a valid no-op set.
type serverMetrics struct {
	*site.Instruments

	rpcBid      *obs.Counter
	rpcAward    *obs.Counter
	rpcBidSec   *obs.Histogram
	rpcAwardSec *obs.Histogram
	accepted    *obs.Counter
	rejected    *obs.Counter
	completed   *obs.Counter
	abandoned   *obs.Counter
	settleOK    *obs.Counter
	settleLost  *obs.Counter
	lateness    *obs.Histogram

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

	// Fleet-resilience instruments: the overload valve and the deadline
	// budget (DESIGN.md §15).
	shed            *obs.CounterVec
	shedFloor       *obs.Gauge
	deadlineExpired *obs.Counter

	// Digest-routing family (DESIGN.md §16): load digests pushed to
	// subscribed connections.
	digestPushes *obs.Counter
}

func newServerMetrics(reg *obs.Registry, siteID string) serverMetrics {
	rpc := reg.Counter("wire_rpc_total", "RPC requests handled, by message type.", "site", "type")
	// 10µs … 1.3s: a bid is handled in tens of microseconds and a durable
	// award in about half a millisecond, both below the default buckets'
	// 1ms floor.
	rpcSec := reg.Histogram("wire_rpc_seconds", "RPC handling latency in seconds.", obs.ExponentialBuckets(10e-6, 2, 18), "site", "type")
	shared := site.NewInstruments(reg, siteID)
	settles := reg.Counter("market_settlements_total", "Settlement deliveries.", "role", "result")
	snapQuotes := reg.Counter("site_quote_snapshot_quotes_total", "Quotes answered, by evaluation path.", "site", "path")
	validates := reg.Counter("site_quote_snapshot_validate_total", "Award-time snapshot re-validations.", "site", "result")
	return serverMetrics{
		Instruments: shared,
		rpcBid:      rpc.With(siteID, TypeBid),
		rpcAward:    rpc.With(siteID, TypeAward),
		rpcBidSec:   rpcSec.With(siteID, TypeBid),
		rpcAwardSec: rpcSec.With(siteID, TypeAward),
		accepted:    shared.Tasks("accepted"),
		rejected:    shared.Tasks("rejected"),
		completed:   shared.Tasks("completed"),
		abandoned:   shared.Tasks("abandoned"),
		settleOK:    settles.With("site", "delivered"),
		settleLost:  settles.With("site", "undeliverable"),
		lateness:    reg.Histogram("market_settlement_lateness", "Completion time minus contracted completion, in simulation units.", latenessBuckets, "site").With(siteID),

		rpcQuery:          rpc.With(siteID, TypeQuery),
		snapshotPublishes: reg.Counter("site_quote_snapshot_publishes_total", "Quote snapshots published to the lock-free board.", "site").With(siteID),
		snapshotQuotes:    snapQuotes.With(siteID, "snapshot"),
		lockedQuotes:      snapQuotes.With(siteID, "locked"),
		validateMatch:     validates.With(siteID, "match"),
		validateMismatch:  validates.With(siteID, "mismatch"),
		batchSyncs:        reg.Counter("site_journal_batch_syncs_total", "Group-commit fsync rounds.", "site").With(siteID),
		batchRecords:      reg.Counter("site_journal_batch_records_total", "Journal records made durable by group-commit rounds.", "site").With(siteID),
		recovered:         reg.Counter("site_contracts_recovered_total", "Open contracts honored after a restart.", "site").With(siteID),
		defaulted:         reg.Counter("site_contracts_defaulted_total", "Contracts closed with a penalty during crash recovery.", "site").With(siteID),
		recoverySeconds:   reg.Gauge("site_recovery_seconds", "Time spent replaying the contract journal at startup.", "site").With(siteID),
		recoveryRecords:   reg.Gauge("site_recovery_records_replayed", "Whole journal records replayed at startup.", "site").With(siteID),
		recoveryTornBytes: reg.Gauge("site_recovery_torn_bytes", "Torn tail bytes truncated during journal recovery.", "site").With(siteID),

		shed:            reg.Counter("site_shed_total", "Bids refused by the overload valve, by reason.", "site", "reason"),
		shedFloor:       reg.Gauge("site_shed_floor", "Marginal-yield floor currently enforced by the overload valve.", "site").With(siteID),
		deadlineExpired: reg.Counter("wire_deadline_expired_total", "Bids refused because their deadline budget was already spent on arrival.", "site").With(siteID),

		digestPushes: reg.Counter("site_digest_push_total", "Load digests pushed to subscribed connections.", "site").With(siteID),
	}
}

// exchangeObs carries the negotiation-side instruments and log/trace sinks
// through callWithRetry and proposeEach, shared by the client-side
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
