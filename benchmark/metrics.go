package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric the benchmark emits. BENCHMARK.json repeats
// these tables for the driver; bench_test.go holds the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

// endToEnd is what a user of the market sees, per workload. "op" is the
// workload's own operation (workloadDef.op): a quote, a durable award, a
// brokered bid from its due time, or one simulated task. The bounds are
// three times the quartile spread seen over ten seeds on a 2-vCPU shared
// machine, capped at the driver's 0.25 (README.md has the numbers).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "op_p95_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "yield_fraction", Unit: "ratio", Better: "higher", Bound: 0.15},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer is the traced run's output, one block per layer of the repo. A
// workload that never enters a layer reports 0 for it: that is the
// measurement ("no calls"), and it is what the README's table predicts.
var perLayer = []metricDef{
	{Name: "workload.generate_tasks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "workload.gap_cv", Unit: "ratio", Better: "higher"},

	{Name: "wire.codec.bid_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.codec.bid_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.codec.serverbid_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.codec.serverbid_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.codec.award_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.codec.contract_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.codec.settled_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.codec.bid_frame_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.codec.allocs_per_roundtrip", Unit: "count", Better: "lower"},

	{Name: "wire.client.propose_count", Unit: "count", Better: "higher"},
	{Name: "wire.client.propose_busy_s", Unit: "s", Better: "lower"},
	{Name: "wire.client.propose_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.client.award_count", Unit: "count", Better: "higher"},
	{Name: "wire.client.award_busy_s", Unit: "s", Better: "lower"},
	{Name: "wire.client.award_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.client.errors", Unit: "count", Better: "lower"},
	{Name: "wire.client.queries", Unit: "count", Better: "lower"},
	{Name: "wire.client.settled_pushes", Unit: "count", Better: "higher"},
	{Name: "wire.client.conn_wait_p99_us", Unit: "us", Better: "lower"},
	{Name: "wire.client.dial_handshake_us", Unit: "us", Better: "lower"},

	{Name: "wire.server.bid_rpc_mean_us", Unit: "us", Better: "lower"},
	{Name: "wire.server.award_rpc_mean_us", Unit: "us", Better: "lower"},
	{Name: "wire.server.queue_depth_p50", Unit: "count", Better: "lower"},
	{Name: "wire.server.snapshot_publishes_per_s", Unit: "1/s", Better: "lower"},
	{Name: "wire.server.quotes_per_publish", Unit: "ratio", Better: "higher"},
	{Name: "wire.server.award_revalidate_miss_share", Unit: "ratio", Better: "lower"},
	{Name: "wire.server.award_reject_share", Unit: "ratio", Better: "lower"},
	{Name: "wire.server.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "wire.transport_mean_us", Unit: "us", Better: "lower"},

	{Name: "core.build_candidate_us", Unit: "us", Better: "lower"},
	{Name: "core.with_task_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_starts_us", Unit: "us", Better: "lower"},
	{Name: "core.opportunity_costs_us", Unit: "us", Better: "lower"},
	{Name: "admission.evaluate_insertion_us", Unit: "us", Better: "lower"},
	{Name: "admission.accept_share", Unit: "ratio", Better: "higher"},

	{Name: "durable.append_sync_us_w1", Unit: "us", Better: "lower"},
	{Name: "durable.append_sync_us_wc", Unit: "us", Better: "lower"},
	{Name: "durable.append_nosync_ns", Unit: "ns", Better: "lower"},
	{Name: "durable.records_per_round", Unit: "ratio", Better: "higher"},
	{Name: "durable.syncs_per_s", Unit: "1/s", Better: "lower"},
	{Name: "durable.record_bytes", Unit: "B", Better: "lower"},
	{Name: "durable.replay_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "durable.sync_share_of_award", Unit: "ratio", Better: "lower"},

	{Name: "wire.broker.sites_quoted_per_bid", Unit: "ratio", Better: "lower"},
	{Name: "wire.broker.route_fallback_share", Unit: "ratio", Better: "lower"},
	{Name: "wire.broker.hedge_share", Unit: "ratio", Better: "lower"},
	{Name: "wire.broker.digest_age_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.broker.circuit_transitions", Unit: "count", Better: "lower"},
	{Name: "wire.broker.retry_exhausted", Unit: "count", Better: "lower"},
	{Name: "wire.broker.hop_p50_us", Unit: "us", Better: "lower"},

	{Name: "site.ns_per_task", Unit: "ns", Better: "lower"},
	{Name: "site.rank_ops", Unit: "count", Better: "lower"},
	{Name: "site.preemptions", Unit: "count", Better: "lower"},
	{Name: "site.quote_builds", Unit: "count", Better: "lower"},
	{Name: "site.quote_reuses", Unit: "count", Better: "higher"},

	{Name: "obs.breakdown.negotiation_p50_us", Unit: "us", Better: "lower"},
	{Name: "obs.breakdown.queue_p50_us", Unit: "us", Better: "lower"},
	{Name: "obs.breakdown.execution_p50_us", Unit: "us", Better: "lower"},
	{Name: "obs.breakdown.settlement_p50_us", Unit: "us", Better: "lower"},
	{Name: "obs.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "obs.metrics_ledger_cost_share", Unit: "ratio", Better: "lower"},

	{Name: "harness.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "harness.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.samples", Unit: "count", Better: "higher"},
	{Name: "budget.unattributed_share", Unit: "ratio", Better: "lower"},
}

// value is one reported number with its unit, the shape the driver reads.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill renders vals against defs: every def gets a value (0 when the
// workload did not produce it), and anything in vals that no def names is a
// bug in the benchmark, reported by the returned list.
func fill(defs []metricDef, vals map[string]float64) (map[string]value, []string) {
	out := make(map[string]value, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		out[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
	}
	var stray []string
	for name := range vals {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	sort.Strings(stray)
	return out, stray
}

// quantile returns the q-quantile of xs by nearest rank; xs is sorted in
// place. An empty sample gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
