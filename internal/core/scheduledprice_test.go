package core

import (
	"testing"

	"repro/internal/task"
)

func TestScheduledPriceMatchesFirstPriceWhenQueueIsShallow(t *testing.T) {
	// With one task per processor nothing waits, so scheduled completion
	// equals immediate-start completion and the orders agree.
	tasks := []*task.Task{
		mk(1, 0, 10, 50, 1),
		mk(2, 0, 25, 90, 2),
		mk(3, 0, 100, 700, 0.5),
	}
	fp := orderIDs(FirstPrice{}, 0, tasks)
	sp := orderIDs(ScheduledPrice{Processors: 3}, 0, tasks)
	if !idsEqual(fp, sp) {
		t.Errorf("shallow queue: ScheduledPrice %v != FirstPrice %v", sp, fp)
	}
}

func TestScheduledPriceDiscountsDeepQueuePositions(t *testing.T) {
	// One processor. Two equal-rate tasks and a slightly lower-rate task
	// whose value survives queueing. Under FirstPrice the low-rate task is
	// strictly last. Under ScheduledPrice the equal-rate task relegated to
	// position 2 sees its price decayed by the wait; with a bound of 0 and
	// fast decay, its in-schedule price collapses below the patient task's.
	fast1 := mk(1, 0, 100, 1000, 12, 0) // rate 10, expires quickly once queued
	fast2 := mk(2, 0, 100, 1000, 12, 0)
	patient := mk(3, 0, 100, 900, 0.1, 0) // rate 9, barely decays

	fpOrder := orderIDs(FirstPrice{}, 0, []*task.Task{fast1, fast2, patient})
	if fpOrder[2] != 3 {
		t.Fatalf("FirstPrice should rank the patient task last: %v", fpOrder)
	}
	spOrder := orderIDs(ScheduledPrice{Processors: 1}, 0, []*task.Task{fast1, fast2, patient})
	if spOrder[1] != 3 {
		t.Errorf("ScheduledPrice should promote the patient task over a doomed queued twin: %v", spOrder)
	}
}

func TestScheduledPriceDeterministic(t *testing.T) {
	tasks := []*task.Task{
		mk(4, 0, 10, 100, 1, 0),
		mk(2, 1, 30, 300, 2, 0),
		mk(1, 2, 20, 150, 3, 0),
		mk(3, 3, 50, 800, 0.5, 0),
	}
	p := ScheduledPrice{Processors: 2}
	a := orderIDs(p, 5, tasks)
	b := orderIDs(p, 5, tasks)
	if !idsEqual(a, b) {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

func TestScheduledPriceDefaults(t *testing.T) {
	p := ScheduledPrice{}
	if p.Name() == "" {
		t.Error("empty name")
	}
	if got := p.Priorities(nil, 0, nil); len(got) != 0 {
		t.Errorf("Priorities(nil) = %v", got)
	}
	// Zero-valued config must still rank sanely.
	tasks := []*task.Task{mk(1, 0, 10, 100, 1), mk(2, 0, 20, 100, 1)}
	if got := p.Priorities(nil, 0, tasks); len(got) != 2 {
		t.Fatalf("priorities = %v", got)
	}
}
