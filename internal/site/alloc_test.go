package site

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/task"
	"repro/internal/workload"
)

// fig3Cell is one cell of Figure 3's preemptive-restart grid: a Millennium
// trace at value skew 4 on 16 processors, ranked by FirstPrice with running
// tasks priced at their restart cost.
func fig3Cell(tb testing.TB, jobs int) ([]*task.Task, Config) {
	tb.Helper()
	spec := workload.Millennium()
	spec.Jobs = jobs
	spec.ValueSkew = 4
	spec.Seed = 7
	tr, err := workload.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return tr.Tasks, Config{
		Processors: 16, Policy: core.FirstPrice{},
		Preemptive: true, PreemptionRestart: true, PreemptRanking: RestartCost,
	}
}

// TestRunTraceAllocsPerTask guards the engine's allocations per simulated
// task on a Figure-3 cell. The queue runs thousands deep at 5,000 jobs, so
// any per-quote or per-dispatch allocation proportional to queue depth
// shows up as a count that grows with trace size; the bound holds at both
// sizes only while dispatch and preemption allocate O(1) per event. The
// cell runs accept-all without a recorder, so it quotes nothing, and
// dispatch ranks into the site's own buffers: what is left is the event
// engine's and each start's bookkeeping, about 11 allocations per task.
// Skipped under the race detector, whose instrumentation allocates.
func TestRunTraceAllocsPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by the race detector")
	}
	const maxPerTask = 13
	for _, jobs := range []int{1000, 5000} {
		tasks, cfg := fig3Cell(t, jobs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := RunTrace(tasks, cfg)
		runtime.ReadMemStats(&after)
		perTask := float64(after.Mallocs-before.Mallocs) / float64(m.Submitted)
		t.Logf("jobs=%d: %.1f allocations per simulated task", jobs, perTask)
		if perTask > maxPerTask {
			t.Errorf("jobs=%d: %.1f allocations per simulated task, want <= %d", jobs, perTask, maxPerTask)
		}
	}
}

// TestSnapshotQuoteAllocs guards the live quote's allocations: at a fresh
// clock reading, a quote against a published snapshot is one ranking of
// the book plus an insertion, so it allocates a fixed handful of buffers
// whatever the depth. FirstReward over an unbounded book 64 deep, behind
// four busy processors. Skipped under the race detector, whose
// instrumentation allocates.
func TestSnapshotQuoteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by the race detector")
	}
	const maxPerQuote = 7
	rng := rand.New(rand.NewSource(3))
	qs := &QuoteSnapshot{Procs: 4, Policy: core.FirstReward{Alpha: 0.3, DiscountRate: 0.01}, DiscountRate: 0.01}
	for i := 0; i < 64; i++ {
		qs.Pending = append(qs.Pending, task.New(task.ID(i+1), rng.Float64()*100, 1+rng.Float64()*50,
			1+rng.Float64()*200, rng.Float64(), math.Inf(1)))
	}
	for i := 0; i < 4; i++ {
		qs.Running = append(qs.Running, RunningSlot{Start: 90, Runtime: 20 + float64(i)})
	}
	probe := task.New(1000, 100, 20, 150, 0.5, math.Inf(1))
	now := 100.0
	perQuote := testing.AllocsPerRun(200, func() {
		now += 0.001 // live quotes rarely share a clock reading
		if _, err := qs.Quote(now, probe); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per snapshot quote", perQuote)
	if perQuote > maxPerQuote {
		t.Errorf("%.1f allocations per snapshot quote, want <= %d", perQuote, maxPerQuote)
	}
}

// BenchmarkRunTraceFig3 times one Figure-3 cell end to end, at 1,000 jobs
// and at the paper's 5,000, where the queue runs thousands deep.
func BenchmarkRunTraceFig3(b *testing.B) {
	for _, jobs := range []int{1000, 5000} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tasks, cfg := fig3Cell(b, jobs)
				b.StartTimer()
				RunTrace(tasks, cfg)
			}
		})
	}
}
