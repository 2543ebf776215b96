package main

import (
	_ "embed"
	"encoding/json"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/site"
	"repro/internal/workload"
)

// simCell is one (trace seed, policy) run of Figure 3's grid. Cell i takes
// trace seed --seed+i and policy i mod 4: every cell sees another trace, so
// a run's median cell depends little on any one trace's backlog, and the
// same --seconds always simulates the same cells.
type simCell struct {
	SeedOffset  int     `json:"seed_offset"`
	Policy      string  `json:"policy"`
	TotalYield  float64 `json:"total_yield"`
	RankOps     int     `json:"rank_ops"`
	Preemptions int     `json:"preemptions"`
}

var simPolicies = []core.Policy{
	core.FirstPrice{},
	core.PresentValue{DiscountRate: 0.001},
	core.PresentValue{DiscountRate: 0.01},
	core.PresentValue{DiscountRate: 0.1},
}

// secondsPerCell sizes the batch: one 5000-job cell per this much of
// --seconds (a cell takes about 1.9 s on the 2-core reference machine).
// The work is fixed by --seconds, not by the clock, so counts repeat.
const secondsPerCell = 2.0

// simGolden pins the simulator's outputs at one seed and trace size.
type simGolden struct {
	Seed  int64     `json:"seed"`
	Jobs  int       `json:"jobs"`
	Cells []simCell `json:"cells"`
}

//go:embed golden/sim_fig3_slice.json
var simGoldenJSON []byte

func simSpec(cfg runConfig, offset int) workload.Spec {
	spec := workload.Millennium()
	spec.Jobs = cfg.sizes.simJobs
	spec.ValueSkew = 4
	spec.Seed = cfg.seed + int64(offset)
	return spec
}

// depthRecorder notes the pending depth at every scheduling event of a
// traced simulation, for the direct-call timings to replay.
type depthRecorder struct{ depths []float64 }

func (r *depthRecorder) Record(e site.Event) {
	if e.Task != nil {
		r.depths = append(r.depths, float64(e.Queued))
	}
}

// runSimFig3Slice is the batch workload: Figure 3's dominant cost, the
// preemptive restart regime on Millennium traces, with no wire and no disk.
// The operation is one simulated task.
func runSimFig3Slice(cfg runConfig) (*outcome, error) {
	cells := int(math.Ceil(cfg.window.Seconds() / secondsPerCell))

	// Set-up is trace generation: RunTrace mutates its tasks, so every cell
	// needs a trace of its own. It takes milliseconds, so it is repeated
	// five times as often as the live set-ups to steady its median.
	out := &outcome{}
	traces := make([]*workload.Trace, cells)
	for rep := 0; rep < 5*cfg.sizes.setupReps; rep++ {
		began := time.Now()
		for i := range traces {
			tr, err := workload.Generate(simSpec(cfg, i))
			if err != nil {
				return nil, err
			}
			traces[i] = tr
		}
		out.setup = append(out.setup, time.Since(began).Seconds())
	}

	var (
		tr      = newTracing(cfg.traced)
		spans   = tr.log()
		depths  = &depthRecorder{}
		reg     = newRegistry(cfg)
		metrics site.Metrics
		opts    []site.Option
	)
	if cfg.traced {
		// The events are formatted and dropped: the simulator's stages live on
		// the virtual clock, so no wall-time breakdown is read from them, and
		// kept on the heap they would slow the GC's pace and make the traced
		// run look cheaper than the plain one.
		tracer := obs.NewTracer(io.Discard, "sim")
		opts = append(opts, site.WithRecorder(site.NewObsRecorder(reg, tracer, "site-0")), site.WithRecorder(depths))
	}
	gc0 := gcPause()
	for i, trace := range traces {
		policy := simPolicies[i%len(simPolicies)]
		for _, t := range trace.Tasks {
			out.offered += t.Value
		}
		cpu0, began := cpuTime(), time.Now()
		m := site.RunTrace(trace.Tasks, site.Config{
			Processors: 16, Policy: policy,
			Preemptive: true, PreemptionRestart: true, PreemptRanking: site.RestartCost,
		}, opts...)
		end := time.Now()
		spans.add("site.run_trace", "", uint64(i), began, end)

		// A cell is a slice of its own; its one latency is the cell's mean
		// time per task, so op_p50_us and op_p95_us both read the median cell.
		out.slices = append(out.slices, slice{ops: m.Submitted, wall: end.Sub(began), cpu: cpuTime() - cpu0,
			lat: []float64{micros(end.Sub(began)) / float64(m.Submitted)}})
		out.yield += m.TotalYield
		out.tally.Submitted += m.Submitted
		out.tally.Refused += m.Rejected
		out.tally.Awarded += m.Accepted
		out.tally.Settled += m.Completed
		metrics.RankOps += m.RankOps
		metrics.Preemptions += m.Preemptions
		metrics.QuoteBuilds += m.QuoteBuilds
		metrics.QuoteReuses += m.QuoteReuses
		out.cells = append(out.cells, simCell{SeedOffset: i, Policy: policy.Name(),
			TotalYield: m.TotalYield, RankOps: m.RankOps, Preemptions: m.Preemptions})
	}

	out.checks = append(out.checks, out.tally.conservation(), out.tally.resolved(), checkGolden(cfg, out.cells))

	if cfg.traced {
		out.spans = tr.all()
		out.inputs = layerInputs{spec: simSpec(cfg, 0), policy: simPolicies[0], procs: 16,
			depth: int(median(depths.depths)), conns: cfg.conns, dir: cfg.dir, sizes: cfg.sizes}
		ops, wall := out.totals()
		out.layers = map[string]float64{
			"site.ns_per_task":    ratio(float64(wall), float64(ops)),
			"site.rank_ops":       float64(metrics.RankOps),
			"site.preemptions":    float64(metrics.Preemptions),
			"site.quote_builds":   float64(metrics.QuoteBuilds),
			"site.quote_reuses":   float64(metrics.QuoteReuses),
			"harness.gc_pause_ms": float64(gcPause()-gc0) / float64(time.Millisecond),
			"harness.samples":     float64(ops),
		}
	}
	return out, nil
}

// checkGolden compares the cells this run simulated with the committed
// ones, bit for bit, when the run used the golden seed and trace size. Any
// other seed has no reference to compare with and passes.
func checkGolden(cfg runConfig, got []simCell) check {
	const name = "sim_matches_golden"
	var g simGolden
	if err := json.Unmarshal(simGoldenJSON, &g); err != nil {
		return checkf(name, false, "golden/sim_fig3_slice.json: %v", err)
	}
	if cfg.seed != g.Seed || cfg.sizes.simJobs != g.Jobs {
		return check{Name: name, OK: true}
	}
	for i, c := range got {
		if i >= len(g.Cells) {
			break
		}
		if c != g.Cells[i] {
			return checkf(name, false, "cell %d: got %+v, golden %+v", i, c, g.Cells[i])
		}
	}
	return check{Name: name, OK: true}
}
