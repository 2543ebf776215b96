package admission

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/task"
)

func evalOne(t *testing.T, tk *task.Task, queue []*task.Task, procs int, discount float64) Quote {
	t.Helper()
	all := append(append([]*task.Task{}, queue...), tk)
	cand := core.BuildCandidate(core.FCFS{}, 0, procs, nil, all)
	q, err := Evaluate(tk, cand, discount)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestEvaluateIdleSite(t *testing.T) {
	// Idle site: the task starts now, completes at its runtime, earns full
	// value; cost is zero; slack = PV/decay.
	tk := task.New(1, 0, 10, 100, 2, math.Inf(1))
	q := evalOne(t, tk, nil, 1, 0)
	if q.ExpectedStart != 0 || q.ExpectedCompletion != 10 {
		t.Errorf("quote start/completion = %v/%v, want 0/10", q.ExpectedStart, q.ExpectedCompletion)
	}
	if q.ExpectedYield != 100 {
		t.Errorf("ExpectedYield = %v, want 100", q.ExpectedYield)
	}
	if q.Cost != 0 {
		t.Errorf("Cost = %v, want 0", q.Cost)
	}
	if q.Slack != 50 { // 100/2
		t.Errorf("Slack = %v, want 50", q.Slack)
	}
}

func TestEvaluateDiscountsPV(t *testing.T) {
	tk := task.New(1, 0, 10, 100, 2, math.Inf(1))
	q := evalOne(t, tk, nil, 1, 0.1) // PV = 100/(1+1) = 50
	if math.Abs(q.PresentValue-50) > 1e-9 {
		t.Errorf("PresentValue = %v, want 50", q.PresentValue)
	}
	if math.Abs(q.Slack-25) > 1e-9 {
		t.Errorf("Slack = %v, want 25", q.Slack)
	}
}

func TestEvaluateCostEquation8(t *testing.T) {
	// FCFS: the new task (arrival 5) lands between earlier and later queue
	// entries; tasks behind it pay decay_j * runtime_new each.
	ahead := task.New(1, 0, 10, 100, 1, math.Inf(1))
	behindA := task.New(2, 6, 10, 100, 3, math.Inf(1))
	behindB := task.New(3, 7, 10, 100, 5, math.Inf(1))
	tk := task.New(4, 5, 20, 300, 2, math.Inf(1))

	q := evalOne(t, tk, []*task.Task{ahead, behindA, behindB}, 1, 0)
	// cost = (3+5) * runtime(20) = 160.
	if math.Abs(q.Cost-160) > 1e-9 {
		t.Errorf("Cost = %v, want 160", q.Cost)
	}
	// Expected start behind 'ahead' = 10; completion 30; delay = 30-25 = 5;
	// yield = 300 - 2*5 = 290; slack = (290-160)/2 = 65.
	if math.Abs(q.ExpectedYield-290) > 1e-9 {
		t.Errorf("ExpectedYield = %v, want 290", q.ExpectedYield)
	}
	if math.Abs(q.Slack-65) > 1e-9 {
		t.Errorf("Slack = %v, want 65", q.Slack)
	}
}

func TestEvaluateZeroDecaySlack(t *testing.T) {
	patient := task.New(1, 0, 10, 100, 0, math.Inf(1))
	q := evalOne(t, patient, nil, 1, 0)
	if !math.IsInf(q.Slack, 1) {
		t.Errorf("zero-decay positive-net slack = %v, want +Inf", q.Slack)
	}

	// Zero decay but net-negative: behind it sits an urgent task paying the
	// cost. Make the candidate put the patient task first via FCFS arrival.
	urgent := task.New(2, 1, 10, 100, 50, math.Inf(1))
	worthless := task.New(3, 0, 10, -5, 0, math.Inf(1)) // negative value
	all := []*task.Task{urgent, worthless}
	cand := core.BuildCandidate(core.FCFS{}, 0, 1, nil, all)
	q2, err := Evaluate(worthless, cand, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(q2.Slack, -1) {
		t.Errorf("zero-decay negative-net slack = %v, want -Inf", q2.Slack)
	}
}

func TestEvaluateMissingTask(t *testing.T) {
	cand := core.BuildCandidate(core.FCFS{}, 0, 1, nil, nil)
	if _, err := Evaluate(task.New(1, 0, 10, 100, 1, 0), cand, 0); err == nil {
		t.Error("Evaluate on a task outside the candidate should fail")
	}
}

func TestSlackThresholdPolicy(t *testing.T) {
	p := SlackThreshold{Threshold: 180}
	if p.Admit(Quote{Slack: 179.9}) {
		t.Error("admitted below threshold")
	}
	if !p.Admit(Quote{Slack: 180}) {
		t.Error("rejected at threshold")
	}
	if !p.Admit(Quote{Slack: math.Inf(1)}) {
		t.Error("rejected infinite slack")
	}
	if p.Admit(Quote{Slack: math.Inf(-1)}) {
		t.Error("admitted -Inf slack")
	}
	if !strings.Contains(p.Name(), "180") {
		t.Errorf("Name() = %q should carry the threshold", p.Name())
	}
}

func TestAcceptAll(t *testing.T) {
	if !(AcceptAll{}).Admit(Quote{Slack: math.Inf(-1), ExpectedYield: -1e9}) {
		t.Error("AcceptAll rejected a task")
	}
	if (AcceptAll{}).Name() == "" {
		t.Error("AcceptAll has no name")
	}
}

// TestReadsQuote pins which policies a site must price bids for: only
// accept-all decides without looking at the quote.
func TestReadsQuote(t *testing.T) {
	for _, c := range []struct {
		p    Policy
		want bool
	}{
		{AcceptAll{}, false},
		{SlackThreshold{Threshold: 180}, true},
		{MinYield{Threshold: 10}, true},
	} {
		if got := c.p.ReadsQuote(); got != c.want {
			t.Errorf("%s ReadsQuote() = %v, want %v", c.p.Name(), got, c.want)
		}
	}
}

func TestMinYield(t *testing.T) {
	p := MinYield{Threshold: 10}
	if p.Admit(Quote{ExpectedYield: 9}) || !p.Admit(Quote{ExpectedYield: 10}) {
		t.Error("MinYield threshold broken")
	}
	if p.Name() == "" {
		t.Error("MinYield has no name")
	}
}

func TestQuoteString(t *testing.T) {
	q := Quote{TaskID: 7, ExpectedCompletion: 12.5, Slack: 3.25}
	s := q.String()
	if !strings.Contains(s, "7") || !strings.Contains(s, "12.50") {
		t.Errorf("Quote.String() = %q missing fields", s)
	}
}

// TestSlackMonotoneInQueueDepth: the deeper a task lands in the candidate
// schedule, the lower its slack — the mechanism by which load depresses
// admission (Section 6).
func TestSlackMonotoneInQueueDepth(t *testing.T) {
	prev := math.Inf(1)
	for depth := 0; depth <= 8; depth++ {
		var queue []*task.Task
		for i := 0; i < depth; i++ {
			queue = append(queue, task.New(task.ID(i+1), 0, 50, 100, 0.5, math.Inf(1)))
		}
		tk := task.New(99, 1, 10, 100, 1, math.Inf(1)) // arrives after the queue
		q := evalOne(t, tk, queue, 1, 0.01)
		if q.Slack >= prev && depth > 0 {
			t.Errorf("slack did not decrease with depth %d: %v >= %v", depth, q.Slack, prev)
		}
		prev = q.Slack
	}
}
