// Package sim implements the discrete-event simulation engine underlying
// the task-service economy simulator.
//
// The engine maintains a virtual clock and an agenda of future events.
// Events scheduled for the same instant fire in scheduling order, which
// makes runs fully deterministic: a simulation driven by a fixed trace and
// a fixed seed produces identical results on every run.
package sim

import (
	"container/heap"
	"fmt"
)

// Handle identifies a scheduled event and allows it to be canceled, e.g.
// when a running task is preempted and its completion event must be
// withdrawn.
type Handle struct {
	ev       *event
	engine   *Engine
	canceled bool
}

// Cancel withdraws the event if it has not fired yet. Canceling twice, or
// canceling after the event fired, is a no-op.
func (h *Handle) Cancel() {
	if h == nil || h.canceled {
		return
	}
	h.canceled = true
	if h.ev.index >= 0 {
		heap.Remove(&h.engine.agenda, h.ev.index)
	}
}

// Canceled reports whether Cancel was called before the event fired.
func (h *Handle) Canceled() bool { return h != nil && h.canceled }

type event struct {
	time  float64
	seq   uint64
	fn    func()
	index int // position in the agenda, -1 once fired or canceled
}

// agenda is a min-heap of pending events ordered by (time, seq). Each event
// tracks its own position, so a canceled one is removed in O(log n).
type agenda []*event

func (a agenda) Len() int { return len(a) }

func (a agenda) Less(i, j int) bool {
	if a[i].time != a[j].time {
		return a[i].time < a[j].time
	}
	return a[i].seq < a[j].seq
}

func (a agenda) Swap(i, j int) {
	a[i], a[j] = a[j], a[i]
	a[i].index = i
	a[j].index = j
}

func (a *agenda) Push(x any) {
	ev := x.(*event)
	ev.index = len(*a)
	*a = append(*a, ev)
}

func (a *agenda) Pop() any {
	old := *a
	ev := old[len(old)-1]
	old[len(old)-1] = nil
	ev.index = -1
	*a = old[:len(old)-1]
	return ev
}

// Engine is a discrete-event simulator. Construct with New.
type Engine struct {
	now    float64
	seq    uint64
	agenda agenda
	steps  uint64
}

// New returns an engine with the clock at zero and an empty agenda.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// Steps returns the number of events fired so far, a cheap progress and
// determinism probe.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending reports the number of scheduled, unfired events.
func (e *Engine) Pending() int { return len(e.agenda) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it indicates a logic error in the caller, and silently reordering
// time would corrupt every downstream statistic.
func (e *Engine) At(t float64, fn func()) *Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", t, e.now))
	}
	e.seq++
	ev := &event{time: t, seq: e.seq, fn: fn}
	heap.Push(&e.agenda, ev)
	return &Handle{ev: ev, engine: e}
}

// After schedules fn to run d time units from now. Negative d panics.
func (e *Engine) After(d float64, fn func()) *Handle {
	return e.At(e.now+d, fn)
}

// Step fires the earliest pending event and reports whether one fired.
func (e *Engine) Step() bool {
	if len(e.agenda) == 0 {
		return false
	}
	ev := heap.Pop(&e.agenda).(*event)
	e.now = ev.time
	e.steps++
	ev.fn()
	return true
}

// Run fires events until the agenda is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with time <= t, then advances the clock to t. Events
// scheduled after t remain pending.
func (e *Engine) RunUntil(t float64) {
	for len(e.agenda) > 0 && e.agenda[0].time <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}
