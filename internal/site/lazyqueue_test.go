package site

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/task"
)

// rankedOnly forwards a policy's ranking and its core.StableRanker
// capability but hides core.MonotoneRanker, so the site ranks the whole
// queue at every decision: the reference the lazy queue is held to.
type rankedOnly struct{ core.Policy }

func (p rankedOnly) StableUnderRemoval() bool {
	return p.Policy.(core.StableRanker).StableUnderRemoval()
}

// lazyTrace draws n tasks with integer arrivals in bursts, a few distinct
// run times, values and decays (decay 0 included), and IDs shuffled
// against arrival order, so equal priorities are common and the ID
// tie-break decides between them. bound < 0 gives each task a finite
// penalty bound of its own.
func lazyTrace(rng *rand.Rand, n int, bound float64) []*task.Task {
	ids := rng.Perm(n)
	tasks := make([]*task.Task, n)
	at := 0.0
	for i := range tasks {
		at += float64(rng.Intn(4))
		runtime := float64(5 * (1 + rng.Intn(6)))
		value := float64(10 * (1 + rng.Intn(20)))
		b := bound
		if b < 0 {
			b = float64(5 * rng.Intn(10))
		}
		tasks[i] = task.New(task.ID(ids[i]+1), at, runtime, value, 0.25*float64(rng.Intn(5)), b)
	}
	return tasks
}

// TestLazyQueueMatchesRanked is the differential test for the lazy queue:
// on random traces, every policy that declares core.MonotoneRanker must
// schedule exactly as the ranked path schedules it — per task the same
// start, completion, preemption count and yield, bit for bit, and the same
// RankOps and Preemptions, and the same sequence of start, preempt,
// complete, park and rank events. It covers penalty bounds 0, finite and
// +Inf, no preemption and every valid preemption regime (Config refuses
// RestartCost with resume), and ParkExpired on and off, and requires the
// traces to preempt and park. PV with a negative rate declares nothing and
// runs the ranked path on both sides.
func TestLazyQueueMatchesRanked(t *testing.T) {
	policies := []core.Policy{
		core.FCFS{}, core.SRPT{}, core.SWPT{}, core.FirstPrice{},
		core.PresentValue{DiscountRate: 0}, core.PresentValue{DiscountRate: 0.001},
		core.PresentValue{DiscountRate: 0.1}, core.PresentValue{DiscountRate: -0.5},
	}
	regimes := []struct {
		name string
		cfg  Config
	}{
		{"nonpreemptive", Config{}},
		{"shield-resume", Config{Preemptive: true}},
		{"shield-restart", Config{Preemptive: true, PreemptionRestart: true}},
		{"restartcost-restart", Config{Preemptive: true, PreemptionRestart: true, PreemptRanking: RestartCost}},
	}
	seed := int64(0)
	preemptions, parks := 0, 0
	for _, policy := range policies {
		for _, bound := range []float64{0, -1, math.Inf(1)} {
			for _, regime := range regimes {
				for _, park := range []bool{false, true} {
					seed++
					rng := rand.New(rand.NewSource(seed))
					tasks := lazyTrace(rng, 100+rng.Intn(201), bound)
					cfg := regime.cfg
					cfg.Processors, cfg.Policy, cfg.ParkExpired = 1+rng.Intn(8), policy, park
					name := fmt.Sprintf("%s/bound=%g/%s/park=%v/procs=%d", policy.Name(), bound, regime.name, park, cfg.Processors)
					pre, pk := compareLazyRanked(t, name, tasks, cfg)
					preemptions, parks = preemptions+pre, parks+pk
				}
			}
		}
	}
	t.Logf("%d preemptions, %d parks", preemptions, parks)
	if preemptions == 0 || parks == 0 {
		t.Fatalf("the traces preempted %d times and parked %d tasks; both must happen", preemptions, parks)
	}
}

// compareLazyRanked runs clones of tasks under cfg as given and with its
// policy wrapped in rankedOnly, and reports any difference. It returns the
// run's preemptions and parks.
func compareLazyRanked(t *testing.T, name string, tasks []*task.Task, cfg Config) (preemptions, parks int) {
	t.Helper()
	lazyTasks, refTasks := make([]*task.Task, len(tasks)), make([]*task.Task, len(tasks))
	for i, tk := range tasks {
		lazyTasks[i], refTasks[i] = tk.Clone(), tk.Clone()
	}
	refCfg := cfg
	refCfg.Policy = rankedOnly{cfg.Policy}
	if New(nil, "", refCfg).queue != nil {
		t.Fatalf("%s: the reference takes the lazy path", name)
	}
	mr, ok := cfg.Policy.(core.MonotoneRanker)
	if declares := ok && mr.NonIncreasingWhileQueued(); (New(nil, "", cfg).queue != nil) != declares {
		t.Fatalf("%s: lazy path taken = %v, want %v", name, !declares, declares)
	}
	var lazyLog, refLog Log
	lazyM := RunTrace(lazyTasks, cfg, WithRecorder(&lazyLog))
	refM := RunTrace(refTasks, refCfg, WithRecorder(&refLog))

	for i, got := range lazyTasks {
		want := refTasks[i]
		if got.State != want.State || got.Start != want.Start || got.Completion != want.Completion ||
			got.Preemptions != want.Preemptions || math.Float64bits(got.Yield) != math.Float64bits(want.Yield) {
			t.Fatalf("%s: task %d: start %v completion %v preemptions %d yield %v; ranked %v %v %d %v",
				name, got.ID, got.Start, got.Completion, got.Preemptions, got.Yield,
				want.Start, want.Completion, want.Preemptions, want.Yield)
		}
	}
	if lazyM.RankOps != refM.RankOps || lazyM.Preemptions != refM.Preemptions ||
		math.Float64bits(lazyM.TotalYield) != math.Float64bits(refM.TotalYield) {
		t.Fatalf("%s: rank ops %d preemptions %d yield %v; ranked %d %d %v", name,
			lazyM.RankOps, lazyM.Preemptions, lazyM.TotalYield, refM.RankOps, refM.Preemptions, refM.TotalYield)
	}
	got, want := decisions(lazyLog.Events), decisions(refLog.Events)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s: decision %d: %v; ranked %v", name, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d decisions; ranked %d", name, len(got), len(want))
	}
	for _, e := range want {
		if e.Kind == EventPark {
			parks++
		}
	}
	return refM.Preemptions, parks
}

// decisions keeps a log's start, preempt, complete, park and rank events,
// without their task pointers. Submissions are left out: their quote terms
// come from the quoting path, which the two runs may take differently.
func decisions(log []Event) []Event {
	var out []Event
	for _, e := range log {
		switch e.Kind {
		case EventStart, EventPreempt, EventComplete, EventPark, EventRank:
			e.Task = nil
			out = append(out, e)
		}
	}
	return out
}

// countingPolicy forwards a policy's ranking and capabilities and counts
// its priority evaluations, one per task per Priorities call.
type countingPolicy struct {
	core.Policy
	evals *int
}

func (p countingPolicy) Priorities(dst []float64, now float64, tasks []*task.Task) []float64 {
	*p.evals += len(tasks)
	return p.Policy.Priorities(dst, now, tasks)
}

func (p countingPolicy) StableUnderRemoval() bool {
	return p.Policy.(core.StableRanker).StableUnderRemoval()
}

func (p countingPolicy) NonIncreasingWhileQueued() bool {
	return p.Policy.(core.MonotoneRanker).NonIncreasingWhileQueued()
}

// TestFig3PriorityEvaluationsPerTask pins the lazy queue's saving as a
// count no host can skew: on the Figure-3 cell, priority evaluations per
// simulated task stay under one bound at 1,000 and at 5,000 jobs, though
// the queue runs thousands deep at 5,000. About 4 swap attempts per task
// each evaluate the (up to 16) running tasks, which makes the 53 or so
// measured at both sizes; the lazy queue's own re-evaluations are a few
// more. Ranking the queue at every decision costs about 1,000 evaluations
// per task at 1,000 jobs and 4,500 at 5,000.
func TestFig3PriorityEvaluationsPerTask(t *testing.T) {
	const maxPerTask = 64
	for _, jobs := range []int{1000, 5000} {
		tasks, cfg := fig3Cell(t, jobs)
		evals := 0
		cfg.Policy = countingPolicy{cfg.Policy, &evals}
		m := RunTrace(tasks, cfg)
		perTask := float64(evals) / float64(m.Submitted)
		t.Logf("jobs=%d: %.1f priority evaluations per simulated task (%d rank ops)", jobs, perTask, m.RankOps)
		if perTask > maxPerTask {
			t.Errorf("jobs=%d: %.1f priority evaluations per simulated task, want <= %d", jobs, perTask, maxPerTask)
		}
	}
}
