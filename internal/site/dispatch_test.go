package site

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/workload"
)

// generalFirstReward ranks as core.FirstReward does, but through the
// quadratic Eq. 4 evaluator on every task set. It declares no capability,
// so the site re-ranks before every start and rebuilds every quote: the
// slow reference the fast paths are held to.
type generalFirstReward struct {
	Alpha, DiscountRate float64
}

func (p generalFirstReward) Name() string {
	return fmt.Sprintf("FirstRewardGeneral(alpha=%g,rate=%g)", p.Alpha, p.DiscountRate)
}

func (p generalFirstReward) Priorities(now float64, tasks []*task.Task) []float64 {
	costs := core.OpportunityCosts(now, tasks, true)
	out := make([]float64, len(tasks))
	for i, t := range tasks {
		out[i] = (p.Alpha*core.PV(t, now, p.DiscountRate) - (1-p.Alpha)*costs[i]) / t.RPT
	}
	return out
}

// perStartOracle forwards a policy's Name and Priorities and declares no
// capability, so core.PlanStarts re-ranks the surviving queue before every
// start: the seed dispatcher's loop, one rank op per start. It is the
// differential oracle for the single-pass dispatcher.
type perStartOracle struct{ core.Policy }

// runDispatchTrace runs the trace on a fresh site, optionally under the
// perStartOracle wrapping of its policy, and returns the metrics plus the
// ordered (time, taskID) start sequence.
func runDispatchTrace(t *testing.T, tr []*task.Task, cfg Config, seed bool) (Metrics, []Event) {
	t.Helper()
	if seed {
		cfg.Policy = perStartOracle{cfg.Policy}
	}
	log := &Log{}
	engine := sim.New()
	s := New(engine, "s", cfg, WithRecorder(log))
	ScheduleArrivals(engine, s, tr)
	engine.Run()
	var starts []Event
	for _, e := range log.Events {
		if e.Kind == EventStart {
			starts = append(starts, e)
		}
	}
	return s.Metrics(), starts
}

// TestDispatchMatchesSeedPerStartRerank is the end-to-end differential
// test for the single-pass dispatcher: for every shipped policy, a full
// simulated trace must produce the identical start sequence, yields, and
// delays the seed's re-rank-before-every-start loop produced — while
// spending no more ranking passes, and strictly fewer for stable policies.
func TestDispatchMatchesSeedPerStartRerank(t *testing.T) {
	spec := workload.Default()
	spec.Jobs = 400
	spec.Processors = 8
	spec.Load = 2 // keep a deep queue so dispatch order actually matters
	spec.ValueSkew = 3
	spec.DecaySkew = 5
	spec.Seed = 42

	policies := []core.Policy{
		core.FCFS{},
		core.SRPT{},
		core.SWPT{},
		core.FirstPrice{},
		core.PresentValue{DiscountRate: 0.01},
		core.FirstReward{Alpha: 0.3, DiscountRate: 0.01}, // unbounded trace: conditionally stable
		generalFirstReward{Alpha: 0.3, DiscountRate: 0.01},
		core.ScheduledPrice{Processors: 8},
	}
	for _, policy := range policies {
		tr, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Processors: spec.Processors, Policy: policy}
		seedM, seedStarts := runDispatchTrace(t, tr.Clone(), cfg, true)
		fastM, fastStarts := runDispatchTrace(t, tr.Clone(), cfg, false)

		if len(seedStarts) != len(fastStarts) {
			t.Fatalf("%s: %d starts vs seed %d", policy.Name(), len(fastStarts), len(seedStarts))
		}
		for i := range seedStarts {
			if seedStarts[i].TaskID != fastStarts[i].TaskID || seedStarts[i].Time != fastStarts[i].Time {
				t.Fatalf("%s: start[%d] = task %d @%g, seed task %d @%g", policy.Name(), i,
					fastStarts[i].TaskID, fastStarts[i].Time, seedStarts[i].TaskID, seedStarts[i].Time)
			}
		}
		if seedM.TotalYield != fastM.TotalYield || seedM.Completed != fastM.Completed ||
			seedM.TotalDelay != fastM.TotalDelay {
			t.Fatalf("%s: metrics diverge: yield %g vs %g, completed %d vs %d, delay %g vs %g",
				policy.Name(), fastM.TotalYield, seedM.TotalYield,
				fastM.Completed, seedM.Completed, fastM.TotalDelay, seedM.TotalDelay)
		}
		// Most events in this trace start a single task, where both paths
		// rank once; the single-pass dispatcher must never rank more.
		if fastM.RankOps > seedM.RankOps {
			t.Errorf("%s: single-pass spent %d rank ops, seed %d", policy.Name(), fastM.RankOps, seedM.RankOps)
		}

	}
}

// TestMultiStartEventRanksOnce pins the single-pass saving where it shows:
// a dispatch event that starts several tasks at once (here, a capacity
// grow over a backlog) costs one ranking pass under a stable policy,
// versus one per start on the seed path.
func TestMultiStartEventRanksOnce(t *testing.T) {
	run := func(seed bool) Metrics {
		var policy core.Policy = core.FirstPrice{}
		if seed {
			policy = perStartOracle{policy}
		}
		engine := sim.New()
		s := New(engine, "s", Config{Processors: 1, Policy: policy})
		for i := 1; i <= 9; i++ {
			tk := task.New(task.ID(i), 0, 10, 100, 0.5, math.Inf(1))
			engine.At(0, func() { s.Submit(tk) })
		}
		engine.At(1, func() {
			pre := s.Metrics().RankOps
			s.GrowCapacity(7) // one event, seven starts from the backlog
			delta := s.Metrics().RankOps - pre
			want := 1
			if seed {
				want = 7
			}
			if delta != want {
				t.Errorf("seed=%v: grow event cost %d rank ops, want %d", seed, delta, want)
			}
		})
		engine.Run()
		return s.Metrics()
	}
	seedM, fastM := run(true), run(false)
	if seedM.TotalYield != fastM.TotalYield || seedM.Completed != fastM.Completed {
		t.Errorf("paths diverge: yield %g vs %g, completed %d vs %d",
			fastM.TotalYield, seedM.TotalYield, fastM.Completed, seedM.Completed)
	}
	if fastM.RankOps >= seedM.RankOps {
		t.Errorf("single-pass rank ops %d not below seed %d", fastM.RankOps, seedM.RankOps)
	}
}

// TestExpiredAtDispatchInstantIsParked pins the hoisted expiry check:
// dispatch is atomic in simulation time, and a bounded task whose expiry
// lands exactly at the dispatch instant (ExpectedCompletion == ExpiryTime)
// must be parked — full penalty, no start — never run.
func TestExpiredAtDispatchInstantIsParked(t *testing.T) {
	log := &Log{}
	engine := sim.New()
	s := New(engine, "s", Config{Processors: 1, Policy: core.FCFS{}, ParkExpired: true},
		WithRecorder(log))

	blocker := task.New(1, 0, 20, 100, 0.1, math.Inf(1))
	// ExpiryTime = 1 + 10 + (10+9)/1 = 30. The blocker frees the processor
	// at t=20, where ExpectedCompletion = 20 + 10 = 30 >= 30: expired at
	// exactly the dispatch instant.
	doomed := task.New(2, 1, 10, 10, 1, 9)
	if got := doomed.ExpiryTime(); got != 30 {
		t.Fatalf("doomed expiry time = %g, want 30", got)
	}
	ScheduleArrivals(engine, s, []*task.Task{blocker, doomed})
	engine.Run()

	if doomed.State != task.Completed || doomed.Yield != -9 {
		t.Fatalf("doomed state=%v yield=%g, want parked with full penalty -9", doomed.State, doomed.Yield)
	}
	if doomed.Completion != 20 {
		t.Errorf("doomed parked at %g, want the dispatch instant 20", doomed.Completion)
	}
	for _, e := range log.Events {
		if e.Kind == EventStart && e.TaskID == doomed.ID {
			t.Fatal("expired task was started")
		}
	}
	if log.Count(EventPark) != 1 {
		t.Errorf("park events = %d, want 1", log.Count(EventPark))
	}
	// Blocker finishes with zero delay (yield 100); doomed realizes -9.
	if m := s.Metrics(); m.Completed != 2 || m.TotalYield != 100-9 {
		t.Errorf("metrics = completed %d yield %g", m.Completed, m.TotalYield)
	}
}

// TestQuoteCacheReuseAndInvalidation: repeated quotes at one instant reuse
// the cached base candidate; any scheduling-state change or clock movement
// retires it.
func TestQuoteCacheReuseAndInvalidation(t *testing.T) {
	engine := sim.New()
	s := New(engine, "s", Config{Processors: 2, Policy: core.FirstPrice{}, DiscountRate: 0.01})

	engine.At(0, func() {
		for i := 1; i <= 3; i++ {
			if _, _, err := s.Submit(task.New(task.ID(i), 0, 50, 100, 0.5, math.Inf(1))); err != nil {
				t.Error(err)
			}
		}
		base := s.Metrics()

		// Three quotes at the same instant and state: one build, two reuses.
		for i := 10; i <= 12; i++ {
			if _, err := s.Quote(task.New(task.ID(i), 0, 10, 50, 0.5, math.Inf(1))); err != nil {
				t.Error(err)
			}
		}
		m := s.Metrics()
		if m.QuoteBuilds-base.QuoteBuilds != 1 || m.QuoteReuses-base.QuoteReuses != 2 {
			t.Errorf("same-instant quotes: builds +%d reuses +%d, want +1/+2",
				m.QuoteBuilds-base.QuoteBuilds, m.QuoteReuses-base.QuoteReuses)
		}

		// Submit changes the scheduling state: the next quote must rebuild.
		if _, _, err := s.Submit(task.New(20, 0, 30, 80, 0.5, math.Inf(1))); err != nil {
			t.Error(err)
		}
		pre := s.Metrics()
		if _, err := s.Quote(task.New(21, 0, 10, 50, 0.5, math.Inf(1))); err != nil {
			t.Error(err)
		}
		if m := s.Metrics(); m.QuoteBuilds-pre.QuoteBuilds != 1 {
			t.Errorf("post-submit quote: builds +%d, want +1", m.QuoteBuilds-pre.QuoteBuilds)
		}
	})
	engine.At(5, func() {
		// Clock moved: cached schedule is stale even though state is unchanged.
		pre := s.Metrics()
		if _, err := s.Quote(task.New(22, 5, 10, 50, 0.5, math.Inf(1))); err != nil {
			t.Error(err)
		}
		if m := s.Metrics(); m.QuoteBuilds-pre.QuoteBuilds != 1 {
			t.Errorf("post-advance quote: builds +%d, want +1", m.QuoteBuilds-pre.QuoteBuilds)
		}
	})
	engine.Run()
}

// TestIncrementalQuoteMatchesRebuildQuote: a site quoting through the
// cached-candidate fast path must answer exactly what a full rebuild over
// pending+probe answers, mid-simulation with running work on the
// processors.
func TestIncrementalQuoteMatchesRebuildQuote(t *testing.T) {
	spec := workload.Default()
	spec.Jobs = 50
	spec.Processors = 2
	spec.Load = 3
	spec.Seed = 9
	tr, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}

	engine := sim.New()
	s := New(engine, "s", Config{Processors: 2, Policy: core.FirstPrice{}, DiscountRate: 0.01})
	ScheduleArrivals(engine, s, tr.Clone())

	// Interleave probes with the arrival stream at a few instants.
	for _, at := range []float64{10, 60, 200, 900} {
		now := at
		engine.At(now, func() {
			probe := task.New(task.ID(9000+int(now)), now, 25, 60, 0.4, math.Inf(1))
			qFast, err := s.Quote(probe)
			if err != nil {
				t.Error(err)
				return
			}
			with := append(append([]*task.Task(nil), s.pending...), probe)
			cand := core.BuildCandidate(s.cfg.Policy, now, s.procs, s.snapshot().BusyUntil(now), with)
			qSlow, err := admission.Evaluate(probe, cand, s.cfg.DiscountRate)
			if err != nil {
				t.Error(err)
				return
			}
			if qFast != qSlow {
				t.Errorf("t=%g: fast quote %v, rebuild quote %v", now, qFast, qSlow)
			}
		})
	}
	engine.Run()
}

// TestRecorderOptionsCompose: two WithRecorder options both see every
// event, and completion observers registered via option and method both
// fire.
func TestRecorderOptionsCompose(t *testing.T) {
	logA, logB := &Log{}, &Log{}
	var order []string
	engine := sim.New()
	s := New(engine, "s", Config{Processors: 1, Policy: core.FCFS{}},
		WithRecorder(logA), WithRecorder(logB),
		WithOnComplete(func(*task.Task) { order = append(order, "option") }))
	s.ObserveCompletions(func(*task.Task) { order = append(order, "method") })

	engine.At(0, func() {
		if _, _, err := s.Submit(task.New(1, 0, 5, 50, 0.1, math.Inf(1))); err != nil {
			t.Error(err)
		}
	})
	engine.Run()

	if len(logA.Events) == 0 || len(logA.Events) != len(logB.Events) {
		t.Fatalf("recorder logs diverge: %d vs %d events", len(logA.Events), len(logB.Events))
	}
	if len(order) != 2 || order[0] != "option" || order[1] != "method" {
		t.Fatalf("completion observers = %v, want [option method]", order)
	}
}
