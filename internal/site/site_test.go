package site

import (
	"math"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
)

func newSite(t *testing.T, cfg Config, opts ...Option) (*sim.Engine, *Site) {
	t.Helper()
	engine := sim.New()
	if cfg.Policy == nil {
		cfg.Policy = core.FCFS{}
	}
	if cfg.Processors == 0 {
		cfg.Processors = 1
	}
	return engine, New(engine, "test-site", cfg, opts...)
}

func submitAt(engine *sim.Engine, s *Site, t *task.Task) {
	engine.At(t.Arrival, func() {
		if _, err := s.Submit(t); err != nil {
			panic(err)
		}
	})
}

func TestSingleTaskRunsToCompletion(t *testing.T) {
	engine, s := newSite(t, Config{})
	tk := task.New(1, 5, 10, 100, 1, math.Inf(1))
	submitAt(engine, s, tk)
	engine.Run()

	if tk.State != task.Completed {
		t.Fatalf("state = %v, want completed", tk.State)
	}
	if tk.Completion != 15 {
		t.Errorf("completion = %v, want 15", tk.Completion)
	}
	if tk.Yield != 100 {
		t.Errorf("yield = %v, want 100 (no delay)", tk.Yield)
	}
	m := s.Metrics()
	if m.Completed != 1 || m.Accepted != 1 || m.TotalYield != 100 {
		t.Errorf("metrics = %+v", m)
	}
	if !s.Idle() {
		t.Error("site not idle after completion")
	}
}

func TestQueuedTaskPaysDecay(t *testing.T) {
	engine, s := newSite(t, Config{})
	a := task.New(1, 0, 10, 100, 1, math.Inf(1))
	b := task.New(2, 0, 10, 100, 2, math.Inf(1))
	submitAt(engine, s, a)
	submitAt(engine, s, b)
	engine.Run()

	// FCFS ties break by ID: a runs [0,10], b runs [10,20] with delay 10.
	if b.Completion != 20 {
		t.Fatalf("b completion = %v, want 20", b.Completion)
	}
	if b.Yield != 80 {
		t.Errorf("b yield = %v, want 80", b.Yield)
	}
}

func TestPolicyControlsDispatchOrder(t *testing.T) {
	// Under SRPT the short task jumps the queue that formed while the
	// first task runs.
	engine, s := newSite(t, Config{Policy: core.SRPT{}})
	first := task.New(1, 0, 10, 100, 0, math.Inf(1))
	long := task.New(2, 1, 50, 100, 0, math.Inf(1))
	short := task.New(3, 2, 5, 100, 0, math.Inf(1))
	for _, tk := range []*task.Task{first, long, short} {
		submitAt(engine, s, tk)
	}
	engine.Run()
	if !(short.Completion < long.Completion) {
		t.Errorf("SRPT should finish the short task first: short %v, long %v",
			short.Completion, long.Completion)
	}
	if short.Completion != 15 {
		t.Errorf("short completion = %v, want 15", short.Completion)
	}
}

func TestMultiProcessorParallelism(t *testing.T) {
	engine, s := newSite(t, Config{Processors: 3})
	var tasks []*task.Task
	for i := 0; i < 3; i++ {
		tk := task.New(task.ID(i+1), 0, 10, 100, 1, math.Inf(1))
		tasks = append(tasks, tk)
		submitAt(engine, s, tk)
	}
	engine.Run()
	for _, tk := range tasks {
		if tk.Completion != 10 {
			t.Errorf("task %d completion = %v, want 10 (parallel run)", tk.ID, tk.Completion)
		}
	}
}

func TestPreemptionSuspendsAndResumes(t *testing.T) {
	engine, s := newSite(t, Config{Policy: core.FirstPrice{}, Preemptive: true})
	// Low-value long task starts; a high-value task arrives mid-run and
	// preempts; the victim resumes afterward with its remaining time.
	low := task.New(1, 0, 100, 100, 0.1, math.Inf(1))
	high := task.New(2, 50, 10, 1000, 0.1, math.Inf(1))
	submitAt(engine, s, low)
	submitAt(engine, s, high)
	engine.Run()

	if high.Completion != 60 {
		t.Errorf("high completion = %v, want 60 (preempts at 50)", high.Completion)
	}
	// Low ran [0,50], suspended [50,60], resumed [60,110].
	if low.Completion != 110 {
		t.Errorf("low completion = %v, want 110", low.Completion)
	}
	if low.Preemptions != 1 {
		t.Errorf("low preemptions = %d, want 1", low.Preemptions)
	}
	if s.Metrics().Preemptions != 1 {
		t.Errorf("site preemptions = %d, want 1", s.Metrics().Preemptions)
	}
}

func TestPreemptionRestartLosesProgress(t *testing.T) {
	engine, s := newSite(t, Config{
		Policy: core.FirstPrice{}, Preemptive: true, PreemptionRestart: true,
	})
	low := task.New(1, 0, 100, 100, 0.1, math.Inf(1))
	high := task.New(2, 50, 10, 10000, 0.1, math.Inf(1))
	submitAt(engine, s, low)
	submitAt(engine, s, high)
	engine.Run()

	// Low restarts from scratch at 60 and completes at 160.
	if low.Completion != 160 {
		t.Errorf("low completion = %v, want 160 (restart)", low.Completion)
	}
}

func TestShieldProgressProtectsNearlyDoneTask(t *testing.T) {
	// With ShieldProgress ranking, a running task at 90% progress has a
	// tiny RPT and a huge unit gain; an arrival with merely higher value
	// rate must not displace it.
	engine, s := newSite(t, Config{Policy: core.FirstPrice{}, Preemptive: true})
	low := task.New(1, 0, 100, 100, 0, math.Inf(1))
	high := task.New(2, 90, 100, 300, 0, math.Inf(1))
	submitAt(engine, s, low)
	submitAt(engine, s, high)
	engine.Run()
	if low.Preemptions != 0 {
		t.Errorf("nearly-done task was preempted %d times under ShieldProgress", low.Preemptions)
	}
	if low.Completion != 100 {
		t.Errorf("low completion = %v, want 100", low.Completion)
	}
}

func TestRestartCostRankingExposesRunningTask(t *testing.T) {
	// Same scenario as above but with RestartCost ranking: the running
	// task is judged at its full run time and loses to the 3x value rate.
	engine, s := newSite(t, Config{
		Policy: core.FirstPrice{}, Preemptive: true,
		PreemptionRestart: true, PreemptRanking: RestartCost,
	})
	low := task.New(1, 0, 100, 100, 0, math.Inf(1))
	high := task.New(2, 90, 100, 300, 0, math.Inf(1))
	submitAt(engine, s, low)
	submitAt(engine, s, high)
	engine.Run()
	if low.Preemptions != 1 {
		t.Errorf("preemptions = %d, want 1 under RestartCost ranking", low.Preemptions)
	}
	if high.Completion != 190 {
		t.Errorf("high completion = %v, want 190", high.Completion)
	}
	if low.Completion != 290 { // restarted from scratch after high
		t.Errorf("low completion = %v, want 290", low.Completion)
	}
}

func TestNoPreemptionWhenDisabled(t *testing.T) {
	engine, s := newSite(t, Config{Policy: core.FirstPrice{}})
	low := task.New(1, 0, 100, 1, 0, math.Inf(1))
	high := task.New(2, 10, 10, 1e6, 0, math.Inf(1))
	submitAt(engine, s, low)
	submitAt(engine, s, high)
	engine.Run()
	if low.Preemptions != 0 {
		t.Error("non-preemptive site preempted")
	}
	if high.Completion != 110 {
		t.Errorf("high completion = %v, want 110 (waits for low)", high.Completion)
	}
}

func TestAdmissionControlRejects(t *testing.T) {
	engine, s := newSite(t, Config{
		Policy:    core.FirstPrice{},
		Admission: admission.SlackThreshold{Threshold: 1e12},
	})
	tk := task.New(1, 0, 10, 100, 1, math.Inf(1))
	var accepted bool
	engine.At(0, func() {
		ok, err := s.Submit(tk)
		if err != nil {
			t.Error(err)
		}
		accepted = ok
	})
	engine.Run()
	if accepted {
		t.Fatal("task admitted past an impossible threshold")
	}
	if tk.State != task.Rejected {
		t.Errorf("state = %v, want rejected", tk.State)
	}
	m := s.Metrics()
	if m.Rejected != 1 || m.Accepted != 0 || m.Completed != 0 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestQuoteDoesNotCommit(t *testing.T) {
	engine, s := newSite(t, Config{})
	engine.At(0, func() {
		q, err := s.Quote(task.New(1, 0, 10, 100, 1, math.Inf(1)))
		if err != nil {
			t.Error(err)
		}
		if q.ExpectedCompletion != 10 {
			t.Errorf("quote completion = %v, want 10", q.ExpectedCompletion)
		}
	})
	engine.Run()
	if s.Metrics().Submitted != 0 || !s.Idle() {
		t.Error("Quote committed state")
	}
}

// TestSubmitInvalidTask: Submit rejects an invalid bid with an error and
// counts nothing, both when it prices the bid (slack admission, or a
// recorder attached) and when it skips the quote (accept-all, untraced).
func TestSubmitInvalidTask(t *testing.T) {
	for _, adm := range []admission.Policy{admission.AcceptAll{}, admission.SlackThreshold{Threshold: -1e12}} {
		for _, log := range []*Log{nil, {}} {
			var opts []Option
			if log != nil {
				opts = append(opts, WithRecorder(log))
			}
			engine, s := newSite(t, Config{Admission: adm}, opts...)
			engine.At(0, func() {
				if _, err := s.Submit(task.New(1, 0, -1, 100, 1, 0)); err == nil {
					t.Errorf("%s, recorder %v: invalid task accepted", adm.Name(), log != nil)
				}
			})
			engine.Run()
			if n := s.Metrics().Submitted; n != 0 {
				t.Errorf("%s, recorder %v: Submitted = %d after an invalid task, want 0", adm.Name(), log != nil, n)
			}
		}
	}
}

// TestSubmitQuotesOnlyWhenRead runs one Figure-3 cell three ways. Untraced
// under accept-all, nothing reads a price, so Submit quotes nothing. With a
// recorder attached, which books the quote's terms, every arrival is quoted
// and every decision is bit-equal to the untraced run's. Under slack
// admission every arrival is quoted too.
func TestSubmitQuotesOnlyWhenRead(t *testing.T) {
	const jobs = 500
	run := func(adm admission.Policy, opts ...Option) Metrics {
		tasks, cfg := fig3Cell(t, jobs)
		cfg.Admission = adm
		return RunTrace(tasks, cfg, opts...)
	}
	quoted := func(m Metrics) int { return m.QuoteBuilds + m.QuoteReuses }

	plain := run(nil)
	if n := quoted(plain); n != 0 {
		t.Errorf("untraced accept-all: %d quotes, want 0", n)
	}
	traced := run(nil, WithRecorder(&Log{}))
	if n := quoted(traced); n != traced.Submitted || n != jobs {
		t.Errorf("traced accept-all: %d quotes for %d arrivals, want one each", n, traced.Submitted)
	}
	if plain.Completed != traced.Completed || plain.RankOps != traced.RankOps || plain.Preemptions != traced.Preemptions ||
		math.Float64bits(plain.TotalYield) != math.Float64bits(traced.TotalYield) {
		t.Fatalf("the recorder changed decisions: untraced %v, rank ops %d; traced %v, rank ops %d",
			plain, plain.RankOps, traced, traced.RankOps)
	}
	for i, a := range plain.CompletedTasks {
		b := traced.CompletedTasks[i]
		if a.ID != b.ID || math.Float64bits(a.Completion) != math.Float64bits(b.Completion) ||
			math.Float64bits(a.Yield) != math.Float64bits(b.Yield) {
			t.Fatalf("completion %d: untraced task %d at %v yield %v, traced task %d at %v yield %v",
				i, a.ID, a.Completion, a.Yield, b.ID, b.Completion, b.Yield)
		}
	}
	slack := run(admission.SlackThreshold{Threshold: 0})
	if n := quoted(slack); n != slack.Submitted || n != jobs {
		t.Errorf("slack admission: %d quotes for %d arrivals, want one each", n, slack.Submitted)
	}
}

func TestParkExpiredRealizesPenaltyWithoutRunning(t *testing.T) {
	engine, s := newSite(t, Config{Policy: core.FirstPrice{}, ParkExpired: true})
	blocker := task.New(1, 0, 100, 1000, 0.1, math.Inf(1))
	// Expires at arrival+runtime+ (10+5)/5 = 0+10+3 = 13; it will still be
	// queued behind the blocker then.
	doomed := task.New(2, 1, 10, 10, 5, 5)
	submitAt(engine, s, blocker)
	submitAt(engine, s, doomed)
	engine.Run()

	if doomed.Yield != -5 {
		t.Errorf("parked yield = %v, want -5 (full penalty)", doomed.Yield)
	}
	if doomed.Start != 0 || doomed.Preemptions != 0 {
		t.Error("parked task should never have occupied a processor")
	}
	m := s.Metrics()
	if m.Completed != 2 {
		t.Errorf("completed = %d, want 2 (parked counts as realized)", m.Completed)
	}
}

func TestOnCompleteObserver(t *testing.T) {
	var seen []task.ID
	engine, s := newSite(t, Config{},
		WithOnComplete(func(tk *task.Task) { seen = append(seen, tk.ID) }))
	submitAt(engine, s, task.New(1, 0, 10, 100, 1, math.Inf(1)))
	submitAt(engine, s, task.New(2, 1, 10, 100, 1, math.Inf(1)))
	engine.Run()
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Errorf("observer saw %v, want [1 2]", seen)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Processors: 0, Policy: core.FCFS{}},
		{Processors: 1, Policy: nil},
		{Processors: 1, Policy: core.FCFS{}, Preemptive: true, PreemptRanking: RestartCost},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(sim.New(), "bad", cfg)
		}()
	}
}

func TestSiteAccessors(t *testing.T) {
	engine, s := newSite(t, Config{Processors: 2})
	if s.Engine() != engine {
		t.Error("Engine() mismatch")
	}
	if s.Config().Processors != 2 {
		t.Error("Config() mismatch")
	}
	if s.Admission() == nil {
		t.Error("Admission() should default to accept-all")
	}
	var observed int
	s.ObserveCompletions(func(*task.Task) { observed++ })
	tk := task.New(1, 0, 10, 100, 1, math.Inf(1))
	long := task.New(2, 0, 50, 100, 1, math.Inf(1))
	submitAt(engine, s, tk)
	submitAt(engine, s, long)
	engine.At(5, func() {
		if s.RunningLen() != 2 || s.PendingLen() != 0 {
			t.Errorf("running/pending = %d/%d, want 2/0", s.RunningLen(), s.PendingLen())
		}
		if s.QueuedWork() != 0 {
			t.Errorf("QueuedWork = %v, want 0", s.QueuedWork())
		}
	})
	engine.Run()
	if observed != 2 {
		t.Errorf("observer saw %d completions, want 2", observed)
	}
}

func TestPerClassYieldAccounting(t *testing.T) {
	engine, s := newSite(t, Config{Processors: 2})
	hi := task.New(1, 0, 10, 500, 1, math.Inf(1))
	hi.Class = task.HighValue
	lo := task.New(2, 0, 10, 50, 1, math.Inf(1))
	lo.Class = task.LowValue
	submitAt(engine, s, hi)
	submitAt(engine, s, lo)
	engine.Run()

	m := s.Metrics()
	if m.HighClassYield != 500 || m.LowClassYield != 50 {
		t.Errorf("class yields = %v/%v, want 500/50", m.HighClassYield, m.LowClassYield)
	}
	if m.AcceptedValue != 550 {
		t.Errorf("accepted value = %v, want 550", m.AcceptedValue)
	}
	if len(m.CompletedTasks) != 2 {
		t.Errorf("completed records = %d, want 2", len(m.CompletedTasks))
	}
}

func TestGrowShrinkNoops(t *testing.T) {
	_, s := newSite(t, Config{Processors: 2})
	s.GrowCapacity(0)
	s.GrowCapacity(-3)
	if s.Processors() != 2 {
		t.Error("no-op grow changed capacity")
	}
	if got := s.ShrinkCapacity(0); got != 0 {
		t.Error("no-op shrink removed processors")
	}
	if got := s.ShrinkCapacity(-1); got != 0 {
		t.Error("negative shrink removed processors")
	}
}

func TestMetricsAccessors(t *testing.T) {
	m := Metrics{}
	if m.YieldRate() != 0 || m.MeanDelay() != 0 || m.AcceptanceRate() != 0 || m.ActiveInterval() != 0 {
		t.Error("zero metrics should return zeros")
	}
	m = Metrics{FirstArrival: 10, LastCompletion: 60, TotalYield: 100,
		Completed: 4, TotalDelay: 20, Submitted: 8, Accepted: 6}
	if m.ActiveInterval() != 50 {
		t.Errorf("ActiveInterval = %v, want 50", m.ActiveInterval())
	}
	if m.YieldRate() != 2 {
		t.Errorf("YieldRate = %v, want 2", m.YieldRate())
	}
	if m.MeanDelay() != 5 {
		t.Errorf("MeanDelay = %v, want 5", m.MeanDelay())
	}
	if m.AcceptanceRate() != 0.75 {
		t.Errorf("AcceptanceRate = %v, want 0.75", m.AcceptanceRate())
	}
	if m.String() == "" {
		t.Error("Metrics.String() empty")
	}
}
