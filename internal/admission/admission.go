// Package admission implements the paper's task-acceptance heuristics
// (Section 6).
//
// When a bid arrives, the site integrates the task into its candidate
// schedule, estimates the task's yield at its expected completion time, and
// computes the task's slack — the additional delay the task can absorb
// before its reward drops below the yield threshold (zero, without loss of
// generality). Tasks whose slack falls below a configurable threshold are
// rejected: accepting them would constrain the site's flexibility to take
// more profitable work later.
package admission

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/task"
)

// Quote is the site's evaluation of a proposed task against its current
// candidate schedule. It carries everything an acceptance policy — and,
// upstream, a negotiating client — needs.
type Quote struct {
	TaskID             task.ID
	Now                float64
	ExpectedStart      float64
	ExpectedCompletion float64
	ExpectedYield      float64 // value function at ExpectedCompletion
	PresentValue       float64 // ExpectedYield discounted over RPT (Equation 3)
	Cost               float64 // delay imposed on tasks behind it (Equation 8)
	Slack              float64 // (PV - cost) / decay (Equation 7)
}

// String renders the quote compactly.
func (q Quote) String() string {
	return fmt.Sprintf("quote(task=%d start=%.2f completion=%.2f yield=%.2f pv=%.2f cost=%.2f slack=%.2f)",
		q.TaskID, q.ExpectedStart, q.ExpectedCompletion, q.ExpectedYield, q.PresentValue, q.Cost, q.Slack)
}

// Evaluate builds a quote for task t given the candidate schedule that
// already integrates it. discountRate is the present-value discount used in
// the slack numerator.
//
// The cost term follows Equation 8: accepting t delays each task behind it
// in the candidate schedule by t's runtime, costing decay_j * runtime_t
// each. The slack follows Equation 7: how much extra delay t tolerates
// before its discounted reward, net of the cost it imposes, reaches zero.
// Tasks with zero decay never lose value, so their slack is +Inf unless
// the net reward is already negative.
func Evaluate(t *task.Task, cand *core.Candidate, discountRate float64) (Quote, error) {
	slot, ok := cand.Slot(t.ID)
	if !ok {
		return Quote{}, fmt.Errorf("admission: task %d not in candidate schedule", t.ID)
	}
	pv := t.YieldAtCompletion(slot.Completion) / (1 + discountRate*t.RPT)

	var cost float64
	for _, behind := range cand.Behind(t.ID) {
		cost += behind.Decay * t.Runtime
	}

	net := pv - cost
	var slack float64
	switch {
	case t.Decay > 0:
		slack = net / t.Decay
	case net >= 0:
		slack = math.Inf(1)
	default:
		slack = math.Inf(-1)
	}

	return Quote{
		TaskID:             t.ID,
		Now:                cand.Now,
		ExpectedStart:      slot.Start,
		ExpectedCompletion: slot.Completion,
		ExpectedYield:      t.YieldAtCompletion(slot.Completion),
		PresentValue:       pv,
		Cost:               cost,
		Slack:              slack,
	}, nil
}

// EvaluateInsertion builds the same quote Evaluate would, from a base
// candidate schedule (which does NOT contain t) plus the insertion
// computed by cand.WithTask(t). The tasks t would delay are exactly the
// base's ranked tasks from the insertion position on, accumulated in the
// same order Evaluate walks Behind, so the two paths produce bit-identical
// quotes for policies whose insertion keys are exact. It reads only the
// base's ranking, never its list-scheduled slots.
//
// This is the negotiation fast path: one base candidate answers m
// competing proposals in O(m·(log n + n)) instead of m full O(n log n)
// rebuilds.
func EvaluateInsertion(t *task.Task, cand *core.Candidate, ins core.Insertion, discountRate float64) Quote {
	slot := ins.Slot
	pv := t.YieldAtCompletion(slot.Completion) / (1 + discountRate*t.RPT)

	var cost float64
	for _, behind := range cand.Ranked()[ins.Pos:] {
		cost += behind.Decay * t.Runtime
	}

	net := pv - cost
	var slack float64
	switch {
	case t.Decay > 0:
		slack = net / t.Decay
	case net >= 0:
		slack = math.Inf(1)
	default:
		slack = math.Inf(-1)
	}

	return Quote{
		TaskID:             t.ID,
		Now:                cand.Now,
		ExpectedStart:      slot.Start,
		ExpectedCompletion: slot.Completion,
		ExpectedYield:      t.YieldAtCompletion(slot.Completion),
		PresentValue:       pv,
		Cost:               cost,
		Slack:              slack,
	}
}

// Policy decides whether a quoted task is worth accepting into the current
// task mix.
type Policy interface {
	Name() string
	Admit(q Quote) bool
}

// AcceptAll admits every task. It models the constrained scheduler of
// Section 5 (and Millennium), which must execute all submitted jobs, and
// the "without admission control" baselines of Figures 6-7.
type AcceptAll struct{}

// Name implements Policy.
func (AcceptAll) Name() string { return "accept-all" }

// Admit implements Policy.
func (AcceptAll) Admit(Quote) bool { return true }

// SlackThreshold rejects tasks whose slack falls below Threshold
// (Section 6). Higher thresholds are more risk-averse: the paper shows the
// ideal threshold grows with load (Figure 7).
type SlackThreshold struct {
	Threshold float64
}

// Name implements Policy.
func (p SlackThreshold) Name() string { return fmt.Sprintf("slack(threshold=%g)", p.Threshold) }

// Admit implements Policy.
func (p SlackThreshold) Admit(q Quote) bool { return q.Slack >= p.Threshold }

// MinYield rejects tasks whose expected yield in the candidate schedule is
// below Threshold. It is a simpler reward-only policy kept as a comparison
// point: unlike slack, it ignores the cost a task imposes on the mix.
type MinYield struct {
	Threshold float64
}

// Name implements Policy.
func (p MinYield) Name() string { return fmt.Sprintf("min-yield(threshold=%g)", p.Threshold) }

// Admit implements Policy.
func (p MinYield) Admit(q Quote) bool { return q.ExpectedYield >= p.Threshold }
