package site

import (
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
// sizes only while quoting, dispatch and preemption allocate O(1) per
// event. Skipped under the race detector, whose instrumentation allocates.
func TestRunTraceAllocsPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by the race detector")
	}
	const maxPerTask = 64
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

// BenchmarkRunTraceFig3 times one 1,000-job Figure-3 cell end to end.
func BenchmarkRunTraceFig3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tasks, cfg := fig3Cell(b, 1000)
		b.StartTimer()
		RunTrace(tasks, cfg)
	}
}
