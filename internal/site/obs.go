package site

import (
	"math"

	"repro/internal/obs"
)

// Instruments is the site_* metric family set a simulated site (through
// NewObsRecorder) and a live wire.Server both bind, so simulated and real
// schedulers expose identical series on one dashboard (DESIGN.md §8). A nil
// registry yields a valid no-op set.
type Instruments struct {
	siteID      string
	tasks       *obs.CounterVec
	queueDepth  *obs.Gauge
	running     *obs.Gauge
	slack       *obs.Histogram
	yield       *obs.Counter
	penalty     *obs.Counter
	rankOps     *obs.Counter
	quoteHits   *obs.Counter
	quoteMisses *obs.Counter
	cohortTasks *obs.CounterVec
	cohortYield *obs.CounterVec
}

// slackBuckets cover the admission slack range seen in the paper's
// regimes: deeply negative (reject territory) through comfortable.
var slackBuckets = []float64{-1000, -250, -100, -50, -10, 0, 10, 25, 50, 100, 250, 500, 1000, 5000}

// NewInstruments registers (or finds) the shared site_* families on reg and
// binds them to siteID.
func NewInstruments(reg *obs.Registry, siteID string) *Instruments {
	quotes := reg.Counter("site_quote_reuse", "Quote evaluations by base-candidate cache outcome.", "site", "result")
	return &Instruments{
		siteID:      siteID,
		tasks:       reg.Counter("site_tasks_total", "Task outcomes at this site.", "site", "event"),
		queueDepth:  reg.Gauge("site_queue_depth", "Pending (queued, not running) tasks.", "site").With(siteID),
		running:     reg.Gauge("site_running_tasks", "Tasks occupying processors.", "site").With(siteID),
		slack:       reg.Histogram("site_admission_slack", "Admission slack of quoted bids (finite values only).", slackBuckets, "site").With(siteID),
		yield:       reg.Counter("site_yield_total", "Realized positive yield.", "site").With(siteID),
		penalty:     reg.Counter("site_penalty_total", "Realized penalties (absolute value).", "site").With(siteID),
		rankOps:     reg.Counter("site_dispatch_rank_ops", "Full priority-ranking passes spent dispatching.", "site").With(siteID),
		quoteHits:   quotes.With(siteID, "hit"),
		quoteMisses: quotes.With(siteID, "miss"),
		cohortTasks: reg.Counter("site_cohort_tasks_total", "Task outcomes split by trace-v2 workload cohort.", "site", "cohort", "event"),
		cohortYield: reg.Counter("site_cohort_yield_total", "Realized yield and penalties split by trace-v2 workload cohort.", "site", "cohort", "kind"),
	}
}

// Tasks binds the site_tasks_total counter of one outcome event.
func (m *Instruments) Tasks(event string) *obs.Counter { return m.tasks.With(m.siteID, event) }

// Cohort books one task outcome against its workload cohort (CohortLabel
// maps unlabeled tasks to "none").
func (m *Instruments) Cohort(cohort, event string) {
	m.cohortTasks.With(m.siteID, obs.CohortLabel(cohort), event).Inc()
}

// Slack records a quoted slack. Infinite slacks (zero-decay tasks) are
// skipped: they carry no distributional information and would poison the
// histogram sum.
func (m *Instruments) Slack(v float64) {
	if !math.IsInf(v, 0) {
		m.slack.Observe(v)
	}
}

// Settle books a realized settlement and its cohort split: non-negative
// settles as realized yield, negative as penalty (absolute value).
func (m *Instruments) Settle(cohort string, v float64) {
	lbl := obs.CohortLabel(cohort)
	if v >= 0 {
		m.yield.Add(v)
		m.cohortYield.With(m.siteID, lbl, "realized").Add(v)
	} else {
		m.penalty.Add(-v)
		m.cohortYield.With(m.siteID, lbl, "penalty").Add(-v)
	}
}

// Depth sets the queue-depth and running-task gauges.
func (m *Instruments) Depth(queued, running int) {
	m.queueDepth.Set(float64(queued))
	m.running.Set(float64(running))
}

// RankOps counts priority-ranking passes spent dispatching.
func (m *Instruments) RankOps(n int) { m.rankOps.Add(float64(n)) }

// QuoteReuse counts one quote evaluation by base-candidate cache outcome.
func (m *Instruments) QuoteReuse(hit bool) {
	if hit {
		m.quoteHits.Inc()
	} else {
		m.quoteMisses.Inc()
	}
}

// obsRecorder bridges the site's audit stream into the observability
// layer: every scheduling decision updates the shared site_* instruments
// and, when a tracer is bound, emits a task-lifecycle trace event in the
// shared JSON format.
type obsRecorder struct {
	*Instruments
	tracer *obs.Tracer

	accepted    *obs.Counter
	rejected    *obs.Counter
	completed   *obs.Counter
	parked      *obs.Counter
	preemptions *obs.Counter
}

// NewObsRecorder builds a Recorder that feeds reg and tracer (either may
// be nil) with events labeled by siteID. Compose it with an audit Log via
// MultiRecorder when both are wanted.
func NewObsRecorder(reg *obs.Registry, tracer *obs.Tracer, siteID string) Recorder {
	m := NewInstruments(reg, siteID)
	return &obsRecorder{
		Instruments: m,
		tracer:      tracer,
		accepted:    m.Tasks("accepted"),
		rejected:    m.Tasks("rejected"),
		completed:   m.Tasks("completed"),
		parked:      m.Tasks("parked"),
		preemptions: m.Tasks("preempted"),
	}
}

// stageFor maps audit event kinds onto lifecycle stages. Submissions that
// pass admission open a contract in one step in the simulator, so
// EventSubmit maps to submit (not contract).
func stageFor(kind EventKind) string {
	switch kind {
	case EventSubmit:
		return obs.StageSubmit
	case EventReject:
		return obs.StageReject
	case EventStart:
		return obs.StageStart
	case EventPreempt:
		return obs.StagePreempt
	case EventComplete:
		return obs.StageComplete
	case EventPark:
		return obs.StagePark
	}
	return kind.String()
}

// Record implements Recorder.
func (r *obsRecorder) Record(e Event) {
	switch e.Kind {
	// Scheduler telemetry: counter-only, no task lifecycle. Return early
	// so the per-task trace stream is not flooded with rank/quote noise.
	case EventRank:
		r.RankOps(int(e.Value))
		return
	case EventQuoteHit, EventQuoteMiss:
		r.QuoteReuse(e.Kind == EventQuoteHit)
		return
	}
	cohort := ""
	if e.Task != nil {
		cohort = e.Task.Cohort
	}
	switch e.Kind {
	case EventSubmit:
		r.accepted.Inc()
		r.Cohort(cohort, "accepted")
		r.Slack(e.Value)
	case EventReject:
		r.rejected.Inc()
		r.Cohort(cohort, "rejected")
		r.Slack(e.Value)
	case EventPreempt:
		r.preemptions.Inc()
		r.Cohort(cohort, "preempted")
	case EventComplete:
		r.completed.Inc()
		r.Cohort(cohort, "completed")
		r.Settle(cohort, e.Value)
	case EventPark:
		r.parked.Inc()
		r.Cohort(cohort, "parked")
		r.Settle(cohort, e.Value)
	}
	r.Depth(e.Queued, e.Running)
	if r.tracer != nil {
		ev := obs.TraceEvent{
			Stage:   stageFor(e.Kind),
			Task:    uint64(e.TaskID),
			Site:    r.siteID,
			T:       e.Time,
			Value:   e.Value,
			Queued:  e.Queued,
			Running: e.Running,
		}
		if e.Task != nil {
			ev.Cohort = e.Task.Cohort
			ev.Client = e.Task.Client
			if e.Kind == EventComplete {
				ev.Dur = e.Time - e.Task.Start
			}
		}
		r.tracer.Emit(ev)
	}
}

// multiRecorder fans one audit stream out to several recorders.
type multiRecorder []Recorder

// Record implements Recorder.
func (m multiRecorder) Record(e Event) {
	for _, r := range m {
		r.Record(e)
	}
}

// MultiRecorder composes recorders; nils are skipped. It returns nil when
// none remain, so the site's fast path (no recorder installed) survives
// composition.
func MultiRecorder(rs ...Recorder) Recorder {
	var out multiRecorder
	for _, r := range rs {
		if r != nil {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil
	}
	if len(out) == 1 {
		return out[0]
	}
	return out
}
