package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/task"
	"repro/internal/wire"
	"repro/internal/workload"
)

// probe watches a live run's registry while the window is open: counter
// growth over the window, and queue depth and digest age sampled at 10 Hz.
// It only exists on traced runs; a nil probe does nothing.
type probe struct {
	reg    *obs.Registry
	sites  int
	events []*lockedBuffer

	c      counters
	gc0    time.Duration
	gc     time.Duration
	fromNS int64 // window bounds on the span clock
	toNS   int64

	mu     sync.Mutex
	depths []float64
	ages   []float64
	stopCh chan struct{}
	done   chan struct{}
}

func newProbe(cfg runConfig, r *rig) *probe {
	if !cfg.traced {
		return nil
	}
	p := &probe{reg: r.reg, sites: len(r.sites)}
	for _, s := range r.sites {
		p.events = append(p.events, s.events)
	}
	if r.brokerEvents != nil {
		p.events = append(p.events, r.brokerEvents)
	}
	return p
}

// open marks the window's start and starts the 10 Hz sampler.
func (p *probe) open() {
	if p == nil {
		return
	}
	p.c.from = scrapeOf(p.reg)
	p.gc0 = gcPause()
	p.fromNS = int64(time.Since(epoch))
	p.stopCh, p.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stopCh:
				return
			case <-tick.C:
				s := scrapeOf(p.reg)
				p.mu.Lock()
				p.depths = append(p.depths, s.sum("site_queue_depth")/float64(p.sites))
				for _, f := range s {
					if f.Name == "broker_digest_age_seconds" {
						for _, smp := range f.Samples {
							p.ages = append(p.ages, smp.Value*1e3)
						}
					}
				}
				p.mu.Unlock()
			}
		}
	}()
}

// close marks the window's end.
func (p *probe) close() {
	if p == nil {
		return
	}
	close(p.stopCh)
	<-p.done
	p.toNS = int64(time.Since(epoch))
	p.gc = gcPause() - p.gc0
	p.c.to = scrapeOf(p.reg)
}

// depth is the median pending depth per site over the window.
func (p *probe) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(math.Round(median(append([]float64(nil), p.depths...))))
}

// clientFacts is what the client side of a live run counted outside spans.
type clientFacts struct {
	queries int     // Query calls of the drain sweep
	pushes  int     // settlement pushes received
	dialUS  float64 // mean dial + handshake per connection
}

// layers turns the window's counters, samples, the outcome's spans, the
// servers' trace events and the journal replay into per-layer values.
func (p *probe) layers(out *outcome, cf clientFacts, journal replayed) map[string]float64 {
	spans := out.spans
	_, wall := out.totals()
	secs := wall.Seconds()
	c := p.c
	l := map[string]float64{}

	nProp, busyProp, durProp := spanStats(spans, "wire.client.propose", p.fromNS, p.toNS)
	nAward, busyAward, durAward := spanStats(spans, "wire.client.award", p.fromNS, p.toNS)
	_, _, waits := spanStats(spans, "harness.conn_wait", p.fromNS, p.toNS)
	l["wire.client.propose_count"] = float64(nProp)
	l["wire.client.propose_busy_s"] = busyProp.Seconds()
	l["wire.client.propose_p50_us"] = median(durProp)
	l["wire.client.award_count"] = float64(nAward)
	l["wire.client.award_busy_s"] = busyAward.Seconds()
	l["wire.client.award_p50_us"] = median(durAward)
	l["wire.client.conn_wait_p99_us"] = quantile(waits, 0.99)
	l["wire.client.errors"] = float64(out.tally.Errors)
	l["wire.client.queries"] = float64(cf.queries)
	l["wire.client.settled_pushes"] = float64(cf.pushes)
	l["wire.client.dial_handshake_us"] = cf.dialUS

	bids := c.delta("wire_rpc_total", "type", wire.TypeBid)
	awards := c.delta("wire_rpc_total", "type", wire.TypeAward)
	bidMean := ratio(c.delta("wire_rpc_seconds_sum", "type", wire.TypeBid), c.delta("wire_rpc_seconds_count", "type", wire.TypeBid)) * 1e6
	awardMean := ratio(c.delta("wire_rpc_seconds_sum", "type", wire.TypeAward), c.delta("wire_rpc_seconds_count", "type", wire.TypeAward)) * 1e6
	publishes := c.delta("site_quote_snapshot_publishes_total")
	match := c.delta("site_quote_snapshot_validate_total", "result", "match")
	miss := c.delta("site_quote_snapshot_validate_total", "result", "mismatch")
	l["wire.server.bid_rpc_mean_us"] = bidMean
	l["wire.server.award_rpc_mean_us"] = awardMean
	l["wire.server.queue_depth_p50"] = float64(p.depth())
	l["wire.server.snapshot_publishes_per_s"] = publishes / secs
	l["wire.server.quotes_per_publish"] = ratio(c.delta("site_quote_snapshot_quotes_total", "path", "snapshot"), publishes)
	l["wire.server.award_revalidate_miss_share"] = ratio(miss, match+miss)
	// An award in flight at either edge of the window is an RPC in one
	// reading and an acceptance in the other, hence the floor.
	l["wire.server.award_reject_share"] = math.Max(0, ratio(awards-c.delta("site_tasks_total", "event", "accepted"), awards))
	l["wire.server.shed_share"] = ratio(c.delta("site_shed_total"), bids+awards)
	if nProp > 0 && bidMean > 0 {
		l["wire.transport_mean_us"] = micros(busyProp)/float64(nProp) - bidMean
	}

	syncs := c.delta("site_journal_batch_syncs_total")
	l["durable.records_per_round"] = ratio(c.delta("site_journal_batch_records_total"), syncs)
	l["durable.syncs_per_s"] = syncs / secs
	l["durable.record_bytes"] = journal.recordBytes()
	l["durable.replay_records_per_s"] = ratio(float64(journal.records), journal.took.Seconds())

	routed := c.delta("broker_route_candidates_count")
	l["wire.broker.sites_quoted_per_bid"] = ratio(c.delta("broker_route_candidates_sum"), routed)
	l["wire.broker.route_fallback_share"] = ratio(c.delta("broker_route_fallback_total"), routed)
	l["wire.broker.hedge_share"] = ratio(c.delta("broker_hedge_total"), routed)
	l["wire.broker.circuit_transitions"] = c.delta("broker_circuit_transitions_total")
	l["wire.broker.retry_exhausted"] = c.delta("broker_site_retry_exhausted_total")
	p.mu.Lock()
	l["wire.broker.digest_age_p50_ms"] = median(p.ages)
	p.mu.Unlock()

	l["site.rank_ops"] = c.delta("site_dispatch_rank_ops")
	l["site.quote_builds"] = c.delta("site_quote_reuse", "result", "miss")
	l["site.quote_reuses"] = c.delta("site_quote_reuse", "result", "hit")

	for k, v := range breakdown(p.events) {
		l[k] = v
	}
	l["harness.gc_pause_ms"] = float64(p.gc) / float64(time.Millisecond)
	ops, _ := out.totals()
	l["harness.samples"] = float64(ops)
	return l
}

// breakdown rebuilds per-task critical paths from the servers' trace events
// and reports the median wall time of each stage.
func breakdown(events []*lockedBuffer) map[string]float64 {
	var all []obs.SpanEvent
	for _, b := range events {
		b.mu.Lock()
		evs, err := obs.ReadTrace(bytes.NewReader(b.buf.Bytes()))
		b.mu.Unlock()
		if err == nil {
			all = append(all, evs...)
		}
	}
	var neg, queue, exec, settle []float64
	for _, path := range obs.BuildPaths(all).Paths {
		bd := path.Breakdown("wall")
		for _, s := range []struct {
			v    float64
			into *[]float64
		}{{bd.Negotiation, &neg}, {bd.Queue, &queue}, {bd.Execution, &exec}, {bd.Settlement, &settle}} {
			if s.v >= 0 {
				*s.into = append(*s.into, s.v*1e6)
			}
		}
	}
	return map[string]float64{
		"obs.breakdown.negotiation_p50_us": median(neg),
		"obs.breakdown.queue_p50_us":       median(queue),
		"obs.breakdown.execution_p50_us":   median(exec),
		"obs.breakdown.settlement_p50_us":  median(settle),
	}
}

// layerInputs is what the direct-call timings replay: the run's own bid
// mix, at the depth and record size the run showed.
type layerInputs struct {
	spec        workload.Spec
	policy      core.Policy
	procs       int
	depth       int // median pending depth per site over the window
	recordBytes int // mean journal record payload
	conns       int
	dir         string
	sizes       sizes
}

// perCall times fn in batches for in.sizes.callBudget and returns the
// median batch's cost per call.
func (in layerInputs) perCall(fn func()) time.Duration {
	const batch = 64
	var per []float64
	deadline := time.Now().Add(in.sizes.callBudget)
	for len(per) < 5 || time.Now().Before(deadline) {
		began := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(began))/batch)
	}
	return time.Duration(median(per))
}

// directLayers times the layers below the wire by calling them directly,
// outside any server, on the workload's own inputs.
func directLayers(in layerInputs) (map[string]float64, error) {
	l := map[string]float64{}
	began := time.Now()
	tr, err := workload.Generate(in.spec)
	if err != nil {
		return nil, err
	}
	l["workload.generate_tasks_per_s"] = ratio(float64(len(tr.Tasks)), time.Since(began).Seconds())
	l["workload.gap_cv"] = gapCV(tr.Tasks)

	codecLayers(l, in, tr.Tasks)
	coreLayers(l, in, tr.Tasks)
	if in.recordBytes > 0 {
		if err := durableLayers(l, in); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// gapCV is the coefficient of variation of the inter-arrival gaps: the
// burstiness the trace actually has.
func gapCV(tasks []*task.Task) float64 {
	if len(tasks) < 3 {
		return 0
	}
	var sum, sq float64
	n := float64(len(tasks) - 1)
	for i := 1; i < len(tasks); i++ {
		g := tasks[i].Arrival - tasks[i-1].Arrival
		sum += g
		sq += g * g
	}
	mean := sum / n
	if mean == 0 {
		return 0
	}
	return math.Sqrt(math.Max(0, sq/n-mean*mean)) / mean
}

// codecLayers times the binary codec on the frames one bid's life puts on
// the wire, built from the run's own bids.
func codecLayers(l map[string]float64, in layerInputs, tasks []*task.Task) {
	codec, ok := wire.CodecByName(wire.CodecBinary)
	if !ok {
		return
	}
	const n = 256
	frames := map[string][]wire.Envelope{}
	for i := 0; i < n; i++ {
		b := market.BidFromTask(tasks[i%len(tasks)])
		sb := market.ServerBid{SiteID: "site-0", TaskID: b.TaskID,
			ExpectedCompletion: b.Arrival + 2*b.Runtime, ExpectedPrice: 0.9 * b.Value}
		reply := wire.Envelope{Type: wire.TypeServerBid, TaskID: b.TaskID, SiteID: sb.SiteID,
			ExpectedCompletion: sb.ExpectedCompletion, ExpectedPrice: sb.ExpectedPrice}
		contract := reply
		contract.Type = wire.TypeContract
		settled := wire.Envelope{Type: wire.TypeSettled, TaskID: b.TaskID, SiteID: sb.SiteID,
			CompletedAt: sb.ExpectedCompletion, FinalPrice: sb.ExpectedPrice}
		frames["bid"] = append(frames["bid"], wire.BidEnvelope(b))
		frames["serverbid"] = append(frames["serverbid"], reply)
		frames["award"] = append(frames["award"], wire.AwardEnvelope(b, sb))
		frames["contract"] = append(frames["contract"], contract)
		frames["settled"] = append(frames["settled"], settled)
	}
	encode := func(kind string) (time.Duration, []byte) {
		envs := frames[kind]
		var buf []byte
		i := 0
		d := in.perCall(func() {
			buf, _ = codec.Append(buf[:0], &envs[i%n])
			i++
		})
		var stream []byte
		for j := range envs {
			stream, _ = codec.Append(stream, &envs[j])
		}
		return d, stream
	}
	decode := func(stream []byte) time.Duration {
		rd := bytes.NewReader(stream)
		br := bufio.NewReader(rd)
		var scratch []byte
		var env wire.Envelope
		i := 0
		return in.perCall(func() {
			if i%n == 0 {
				rd.Reset(stream)
				br.Reset(rd)
			}
			_ = codec.Read(br, 0, &scratch, &env)
			i++
		})
	}
	bidEnc, bidStream := encode("bid")
	sbEnc, sbStream := encode("serverbid")
	awardEnc, _ := encode("award")
	_, contractStream := encode("contract")
	_, settledStream := encode("settled")
	l["wire.codec.bid_encode_ns"] = float64(bidEnc)
	l["wire.codec.bid_decode_ns"] = float64(decode(bidStream))
	l["wire.codec.serverbid_encode_ns"] = float64(sbEnc)
	l["wire.codec.serverbid_decode_ns"] = float64(decode(sbStream))
	l["wire.codec.award_encode_ns"] = float64(awardEnc)
	l["wire.codec.contract_decode_ns"] = float64(decode(contractStream))
	l["wire.codec.settled_decode_ns"] = float64(decode(settledStream))
	l["wire.codec.bid_frame_bytes"] = float64(len(bidStream)) / n

	// One quote's round trip through the codec: bid out and in, server bid
	// out and in, on reused buffers and readers as a connection has them.
	var ms0, ms1 runtime.MemStats
	var buf, scratch []byte
	var env wire.Envelope
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	const trips = 2000
	runtime.ReadMemStats(&ms0)
	for i := 0; i < trips; i++ {
		for _, kind := range []string{"bid", "serverbid"} {
			buf, _ = codec.Append(buf[:0], &frames[kind][i%n])
			rd.Reset(buf)
			br.Reset(rd)
			_ = codec.Read(br, 0, &scratch, &env)
		}
	}
	runtime.ReadMemStats(&ms1)
	l["wire.codec.allocs_per_roundtrip"] = float64(ms1.Mallocs-ms0.Mallocs) / trips
}

// coreLayers times candidate building, insertion quoting, dispatch planning
// and the Eq. 4 cost kernel on a book of in.depth pending tasks.
func coreLayers(l map[string]float64, in layerInputs, tasks []*task.Task) {
	depth := in.depth
	if depth > len(tasks)/2 {
		depth = len(tasks) / 2
	}
	pending := make([]*task.Task, depth)
	for i := range pending {
		t := tasks[i].Clone()
		t.Arrival = 0
		pending[i] = t
	}
	probes := tasks[depth:]
	busy := make([]float64, in.procs)
	for i := range busy {
		busy[i] = tasks[i%len(tasks)].Runtime
	}
	var cand *core.Candidate
	l["core.build_candidate_us"] = micros(in.perCall(func() {
		cand = core.BuildCandidate(in.policy, 0, in.procs, busy, pending)
	}))
	i := 0
	var ok bool
	l["core.with_task_us"] = micros(in.perCall(func() {
		_, ok = cand.WithTask(probes[i%len(probes)])
		i++
	}))
	if ok { // the policy supports insertion quotes (every shipped one does)
		probes = probes[:min(len(probes), 2000)]
		inserts := make([]core.Insertion, len(probes))
		accepted := 0
		for i, t := range probes {
			inserts[i], _ = cand.WithTask(t)
			if (admission.SlackThreshold{}).Admit(admission.EvaluateInsertion(t, cand, inserts[i], quoteDiscount)) {
				accepted++
			}
		}
		l["admission.accept_share"] = ratio(float64(accepted), float64(len(probes)))
		i = 0
		l["admission.evaluate_insertion_us"] = micros(in.perCall(func() {
			_ = admission.EvaluateInsertion(probes[i%len(probes)], cand, inserts[i%len(probes)], quoteDiscount)
			i++
		}))
	}
	l["core.plan_starts_us"] = micros(in.perCall(func() {
		_, _ = core.PlanStarts(in.policy, 0, 1, pending)
	}))
	l["core.opportunity_costs_us"] = micros(in.perCall(func() {
		_ = core.OpportunityCosts(0, pending, false)
	}))
}

// durableLayers times a fresh journal on the run's filesystem with records
// of the run's size: one appender, then in.conns appenders sharing rounds.
func durableLayers(l map[string]float64, in layerInputs) error {
	payload := bytes.Repeat([]byte("x"), in.recordBytes)
	appendSync := func(dir string, writers, each int) (float64, error) {
		j, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncAlways})
		if err != nil {
			return 0, err
		}
		defer j.Close()
		var wg sync.WaitGroup
		errs := make([]error, writers)
		durs := make([][]float64, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					began := time.Now()
					idx, err := j.AppendBatched(payload)
					if err == nil {
						err = j.SyncBarrier(idx)
					}
					if err != nil {
						errs[w] = err
						return
					}
					durs[w] = append(durs[w], micros(time.Since(began)))
				}
			}(w)
		}
		wg.Wait()
		var all []float64
		for w := range durs {
			if errs[w] != nil {
				return 0, errs[w]
			}
			all = append(all, durs[w]...)
		}
		return median(all), nil
	}
	base := filepath.Join(in.dir, "durable-direct")
	defer os.RemoveAll(base)
	w1, err := appendSync(filepath.Join(base, "w1"), 1, in.sizes.syncAppends)
	if err != nil {
		return fmt.Errorf("durable direct timing: %w", err)
	}
	wc, err := appendSync(filepath.Join(base, "wc"), in.conns, in.sizes.syncAppends)
	if err != nil {
		return fmt.Errorf("durable direct timing: %w", err)
	}
	l["durable.append_sync_us_w1"] = w1
	l["durable.append_sync_us_wc"] = wc

	j, err := durable.Open(filepath.Join(base, "nosync"), durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		return err
	}
	defer j.Close()
	l["durable.append_nosync_ns"] = float64(in.perCall(func() { _, _ = j.Append(payload) }))
	return nil
}
