package site

import (
	"fmt"
	"math"

	"repro/internal/task"
)

// Metrics accumulates a site's outcomes over a run. Yields are realized at
// completion time (tasks deliver no value until they complete, Section 2).
type Metrics struct {
	Submitted     int
	Accepted      int
	Rejected      int
	Completed     int
	Preemptions   int
	AcceptedValue float64 // sum of maximum values over accepted tasks

	TotalYield     float64
	TotalDelay     float64
	HighClassYield float64
	LowClassYield  float64

	FirstArrival   float64 // earliest submission seen (+Inf before any)
	LastCompletion float64

	// Scheduler-efficiency telemetry. RankOps counts decision rounds: one
	// per dispatch fill and one per preemption swap attempt, and one per
	// start where the policy is re-ranked before every start. A round
	// ranks the queue, or pops the lazy queue (lazyQueue).
	RankOps     int
	QuoteBuilds int // candidate schedules built to answer quotes
	QuoteReuses int // quotes answered from the cached base schedule

	// CompletedTasks records every realized task outcome, including parked
	// (penalty-realized) tasks, for per-task analysis.
	CompletedTasks []*task.Task
}

// ActiveInterval returns the span from the first submission to the last
// completion — the paper's denominator for the average yield rate
// (Figure 6).
func (m Metrics) ActiveInterval() float64 {
	if math.IsInf(m.FirstArrival, 1) || m.LastCompletion <= m.FirstArrival {
		return 0
	}
	return m.LastCompletion - m.FirstArrival
}

// YieldRate returns the value earned per unit of time over the active
// interval, or zero for an empty run.
func (m Metrics) YieldRate() float64 {
	iv := m.ActiveInterval()
	if iv == 0 {
		return 0
	}
	return m.TotalYield / iv
}

// MeanDelay returns the average completion delay across completed tasks.
func (m Metrics) MeanDelay() float64 {
	if m.Completed == 0 {
		return 0
	}
	return m.TotalDelay / float64(m.Completed)
}

// AcceptanceRate returns the fraction of submissions accepted.
func (m Metrics) AcceptanceRate() float64 {
	if m.Submitted == 0 {
		return 0
	}
	return float64(m.Accepted) / float64(m.Submitted)
}

// String summarizes the metrics for logs.
func (m Metrics) String() string {
	return fmt.Sprintf("metrics(submitted=%d accepted=%d rejected=%d completed=%d preemptions=%d yield=%.2f rate=%.3f)",
		m.Submitted, m.Accepted, m.Rejected, m.Completed, m.Preemptions, m.TotalYield, m.YieldRate())
}
