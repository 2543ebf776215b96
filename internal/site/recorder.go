package site

import (
	"fmt"
	"io"

	"repro/internal/admission"
	"repro/internal/task"
)

// EventKind labels one scheduling decision in the audit log.
type EventKind int

// Audit event kinds.
const (
	EventSubmit EventKind = iota
	EventReject
	EventStart
	EventPreempt
	EventComplete
	EventPark
	// EventRank is scheduler telemetry, not a task-lifecycle step: one per
	// dispatch event that ranked the queue, with Value carrying the number
	// of ranking passes the event cost (1 for stable policies regardless
	// of how many tasks started). TaskID is zero.
	EventRank
	// EventQuoteHit/EventQuoteMiss are quote-cache telemetry: a hit reuses
	// the cached base candidate schedule, a miss builds a schedule.
	// TaskID is zero.
	EventQuoteHit
	EventQuoteMiss
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventSubmit:
		return "submit"
	case EventReject:
		return "reject"
	case EventStart:
		return "start"
	case EventPreempt:
		return "preempt"
	case EventComplete:
		return "complete"
	case EventPark:
		return "park"
	case EventRank:
		return "rank"
	case EventQuoteHit:
		return "quote-hit"
	case EventQuoteMiss:
		return "quote-miss"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry in a site's scheduling audit log.
type Event struct {
	Time    float64
	Kind    EventKind
	TaskID  task.ID
	Queued  int     // pending queue length after the event
	Running int     // occupied processors after the event
	Value   float64 // kind-specific: realized yield (complete/park), slack (submit/reject), RPT (start/preempt)

	// Task is the subject of a task-lifecycle event, nil for telemetry
	// events. Recorders needing the full bid tuple (e.g. the contract
	// ledger, which books the bid's value, cohort and client) read it
	// here; they must not mutate or retain it past the call.
	Task *task.Task

	// ExpectedYield and ExpectedCompletion carry the admission quote's
	// terms on EventSubmit and EventReject: the yield and completion time
	// the site promised (or would have promised) at award time. Zero on
	// other kinds. The contract ledger prices expected-vs-realized yield
	// from these.
	ExpectedYield      float64
	ExpectedCompletion float64
}

// String renders the event as one log line.
func (e Event) String() string {
	return fmt.Sprintf("t=%10.2f %-8s task=%-6d queued=%-4d running=%-3d v=%.2f",
		e.Time, e.Kind, e.TaskID, e.Queued, e.Running, e.Value)
}

// Recorder observes a site's scheduling decisions. Implementations must
// not mutate the tasks they see.
type Recorder interface {
	Record(Event)
}

// Log is a Recorder that retains every event in memory.
type Log struct {
	Events []Event
}

// Record implements Recorder.
func (l *Log) Record(e Event) { l.Events = append(l.Events, e) }

// Dump writes the log to w, one event per line.
func (l *Log) Dump(w io.Writer) {
	for _, e := range l.Events {
		fmt.Fprintln(w, e.String())
	}
}

// Count returns the number of events of the given kind.
func (l *Log) Count(kind EventKind) int {
	n := 0
	for _, e := range l.Events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// MaxQueued returns the peak pending-queue length observed.
func (l *Log) MaxQueued() int {
	max := 0
	for _, e := range l.Events {
		if e.Queued > max {
			max = e.Queued
		}
	}
	return max
}

// UtilizationSeries derives a (time, busy-processors) step series from the
// log, one point per event. Plot-ready and cheap to compute after the run.
func (l *Log) UtilizationSeries() (times []float64, busy []int) {
	times = make([]float64, len(l.Events))
	busy = make([]int, len(l.Events))
	for i, e := range l.Events {
		times[i] = e.Time
		busy[i] = e.Running
	}
	return times, busy
}

// record emits a task-lifecycle audit event if a recorder is installed.
func (s *Site) record(kind EventKind, t *task.Task, value float64) {
	if s.recorder == nil {
		return
	}
	s.recorder.Record(Event{
		Time:    s.engine.Now(),
		Kind:    kind,
		TaskID:  t.ID,
		Queued:  len(s.pending),
		Running: len(s.running),
		Value:   value,
		Task:    t,
	})
}

// recordQuote is the submission-time variant of record: it attaches the
// admission quote's terms so ledger recorders can book expected yield at
// award time.
func (s *Site) recordQuote(kind EventKind, t *task.Task, q admission.Quote) {
	if s.recorder == nil {
		return
	}
	s.recorder.Record(Event{
		Time:               s.engine.Now(),
		Kind:               kind,
		TaskID:             t.ID,
		Queued:             len(s.pending),
		Running:            len(s.running),
		Value:              q.Slack,
		Task:               t,
		ExpectedYield:      q.ExpectedYield,
		ExpectedCompletion: q.ExpectedCompletion,
	})
}

// recordEvent is the task-optional variant of record, used for scheduler
// telemetry events (EventRank, EventQuoteHit, EventQuoteMiss) that do not
// concern a single task.
func (s *Site) recordEvent(kind EventKind, id task.ID, value float64) {
	if s.recorder == nil {
		return
	}
	s.recorder.Record(Event{
		Time:    s.engine.Now(),
		Kind:    kind,
		TaskID:  id,
		Queued:  len(s.pending),
		Running: len(s.running),
		Value:   value,
	})
}
