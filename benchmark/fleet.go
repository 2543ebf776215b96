package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/task"
	"repro/internal/wire"
	"repro/internal/workload"
)

const (
	fleetSites = 8
	// fleetRate is the mean offered rate; the trace's bursts ride around it.
	fleetRate = 400.0 // bids/s
	// fleetSlices cuts the window so that a slice holds 1200 bids at the
	// 15 s window: sixty beyond its p95.
	fleetSlices = 5
	// digestWarmup lets every site's first digests reach the broker, so the
	// run starts on top-k routing and not on the cold-start fan-out.
	digestWarmup = 300 * time.Millisecond
)

// fleetSpec is the PR-6 bursty cohort mix at load 0.6 of the fleet: eight
// small interactive clients on Gamma arrivals with Zipf rate shares, two
// batch clients on Weibull arrivals submitting four at a time, under a
// two-wave rate envelope. Both arrival CVs are 1.5: with heavier tails
// (CV 4) the largest burst of a ten-second window decides every tail
// statistic, and that burst differs from seed to seed by more than any
// regression bound. bids covers warm-up and window at fleetRate.
func fleetSpec(cfg runConfig, bids int) workload.Spec {
	spec := workload.Default()
	spec.Jobs = bids
	spec.Seed = cfg.seed
	spec.Processors = fleetSites * 4
	spec.Load = 0.6
	spec.Cohorts = []workload.Cohort{
		{Name: "interactive", Weight: 1, Clients: 8, ClientSkew: 1, MeanRuntime: 1.5,
			ArrivalKind: workload.DistGamma, ArrivalCV: 1.5},
		{Name: "batch", Weight: 1, Clients: 2, MeanRuntime: 6, BatchSize: 4,
			ArrivalKind: workload.DistWeibull, ArrivalCV: 1.5},
	}
	// One long wave and four short ones per slice of the window: at 8 tasks
	// per unit (load 0.6 x 32 processors over the cohorts' runtimes) and
	// fleetRate bids/s a unit lasts 8/fleetRate seconds.
	unitsPerSlice := cfg.window.Seconds() / fleetSlices * fleetRate / 8
	spec.Envelope = workload.Envelope{{Amplitude: 0.4, Period: unitsPerSlice}, {Amplitude: 0.2, Period: unitsPerSlice / 4}}
	return spec
}

// setupFleet builds the brokered fleet: the trace, the sites on the trace's
// time scale, the broker, the connections to it, and the digest warm-up.
func setupFleet(cfg runConfig, warm, bids int) (*rig, error) {
	r := &rig{reg: newRegistry(cfg)}
	var err error
	if r.trace, err = workload.Generate(fleetSpec(cfg, bids)); err != nil {
		return nil, err
	}
	// Pace the measured part of the trace at fleetRate on average, so the
	// window is cfg.window long at every seed, and run the sites' clocks at
	// the same scale, so the trace's load factor is the fleet's wall load.
	tasks := r.trace.Tasks
	span := tasks[bids-1].Arrival - tasks[warm].Arrival
	if span <= 0 {
		return nil, fmt.Errorf("fleet trace has no span after warm-up")
	}
	meanGap := span / float64(bids-warm-1)
	r.perUnit = time.Duration(float64(time.Second) / fleetRate / meanGap)
	r.shape = siteShape{procs: 4, maxPending: 32, timeScale: r.perUnit}

	if err = r.startSites(cfg, fleetSites); err == nil {
		bc := wire.BrokerConfig{
			Route:          wire.RouteTopK,
			TopK:           2,
			DigestInterval: 25 * time.Millisecond,
			Metrics:        r.reg,
		}
		for _, s := range r.sites {
			bc.SiteAddrs = append(bc.SiteAddrs, s.srv.Addr())
		}
		if cfg.traced {
			r.brokerEvents = &lockedBuffer{}
			bc.Tracer = obs.NewTracer(r.brokerEvents, "broker")
		}
		r.broker, err = wire.NewBrokerServer("127.0.0.1:0", bc)
	}
	if err == nil {
		err = r.dial(cfg, r.broker.Addr())
	}
	if err == nil && cfg.traced {
		r.direct, err = dial(r.sites[0].srv.Addr())
	}
	if err != nil {
		r.close()
		return nil, err
	}
	time.Sleep(digestWarmup)
	return r, nil
}

// due is one bid with the wall time the schedule says it is sent at.
type due struct {
	t        *task.Task
	at       time.Time
	measured bool
}

// runFleetBursty is the open loop: bids are due on the trace's own bursty
// schedule whatever the fleet does, the connections to the broker serve
// the due queue, and each bid (propose, then award) is timed from its due
// time. The operation is one bid, to its contract or refusal.
func runFleetBursty(cfg runConfig) (*outcome, error) {
	warm := int(fleetRate * cfg.warmup().Seconds())
	bids := warm + int(fleetRate*cfg.window.Seconds())
	rig, setups, err := setupRepeated(cfg.sizes.setupReps, func() (*rig, error) { return setupFleet(cfg, warm, bids) })
	if err != nil {
		return nil, err
	}

	var (
		tr      = newTracing(cfg.traced)
		probe   = newProbe(cfg, rig)
		work    = make(chan due, bids) // holds the whole schedule: the generator never blocks on a slow fleet
		opened  = make(chan struct{})
		workers = make([]*worker, cfg.conns)
		late    []float64
		wg      sync.WaitGroup
	)
	for i := range workers {
		workers[i] = &worker{spans: tr.log()}
		wg.Add(1)
		go func(w *worker, c *wire.SiteClient, bk *book) {
			defer wg.Done()
			for d := range work {
				picked := time.Now()
				b := market.BidFromTask(d.t)
				b.Arrival = 0 // the site stamps its own clock
				id := uint64(b.TaskID)
				w.tally.Submitted++
				w.offered += b.Value
				w.spans.add("harness.conn_wait", "bid", id, d.at, picked)
				errs := w.tally.Errors
				sb, ok, reason, err := c.ProposeDetail(b)
				quoted := time.Now()
				w.spans.add("wire.client.propose", "bid", id, picked, quoted)
				end := quoted
				if w.quoteResult(b, sb, ok, reason, err) {
					_, ok, reason, err = c.AwardDetail(b, sb)
					end = time.Now()
					w.spans.add("wire.client.award", "bid", id, quoted, end)
					w.awardResult(bk, b, ok, reason, err)
				}
				w.spans.add("bid", "", id, d.at, end)
				// A bid that ended in an RPC error has no latency: it is
				// counted as failed instead.
				if d.measured && w.tally.Errors == errs {
					w.lat = append(w.lat, sample{end.Sub(epoch), micros(end.Sub(d.at))})
				}
			}
		}(workers[i], rig.clients[i], rig.books[i])
	}

	stopCal := make(chan struct{})
	var calWG sync.WaitGroup
	if rig.direct != nil {
		calWG.Add(1)
		go calibrate(rig, tr.log(), stopCal, &calWG)
	}

	// The generator: sleep to each bid's due time, hand it over, note how
	// late the hand-over was.
	first, _ := rig.trace.Span()
	go func() {
		start := time.Now()
		for i, t := range rig.trace.Tasks {
			at := start.Add(time.Duration((t.Arrival - first) * float64(rig.perUnit)))
			if i == warm {
				close(opened)
			}
			if wait := time.Until(at); wait > 0 {
				time.Sleep(wait)
			}
			if i >= warm {
				late = append(late, micros(time.Since(at)))
			}
			work <- due{t: t, at: at, measured: i >= warm}
		}
		close(work)
	}()
	<-opened
	probe.open()
	marks := sliceMarks(cfg.window, fleetSlices)
	wg.Wait()
	probe.close()
	close(stopCal)
	calWG.Wait()

	out := finishLive(cfg, &outcome{setup: setups}, rig, marks, workers, tr, probe)
	if !cfg.bare {
		view := scrapeOf(rig.reg)
		placed := int(view.sum("market_negotiations_total", "role", "broker", "outcome", "placed"))
		relayed := int(view.sum("market_settlements_total", "role", "broker", "result", "relayed"))
		pushes := 0
		for _, b := range rig.books {
			pushes += b.pushes
		}
		out.checks = append(out.checks, checkf("client_view_equals_broker_view", placed == out.tally.Awarded && relayed == pushes,
			"broker placed %d, clients hold %d contracts; broker relayed %d settlements, clients received %d",
			placed, out.tally.Awarded, relayed, pushes))
	}
	if cfg.traced {
		_, _, viaBroker := spanStats(out.spans, "wire.client.propose", probe.fromNS, probe.toNS)
		_, _, direct := spanStats(out.spans, "calibration.propose", probe.fromNS, probe.toNS)
		out.layers["wire.broker.hop_p50_us"] = median(viaBroker) - median(direct)
		out.layers["harness.late_p99_us"] = quantile(late, 0.99)
	}
	return out, nil
}

// calibrate proposes straight to one site on its own connection every
// 20 ms while the run lasts: the one-hop time the broker hop is compared
// with. The bids are quotes only, with IDs outside the trace's range.
func calibrate(rig *rig, spans *spanLog, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		b := market.BidFromTask(rig.trace.Tasks[i%len(rig.trace.Tasks)])
		b.TaskID = task.ID(1<<40 + i)
		b.Arrival = 0
		began := time.Now()
		_, _, _, _ = rig.direct.ProposeDetail(b)
		spans.add("calibration.propose", "", uint64(b.TaskID), began, time.Now())
	}
}
