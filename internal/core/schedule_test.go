package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/task"
)

func TestCandidateSingleProcessorSequential(t *testing.T) {
	tasks := []*task.Task{
		mk(1, 0, 10, 100, 1),
		mk(2, 0, 20, 100, 1),
		mk(3, 0, 5, 100, 1),
	}
	// FCFS with equal arrivals ties; ID order 1,2,3.
	slots := listSchedule(0, 1, nil, RankOrder(FCFS{}, 0, tasks))
	wantStart := []float64{0, 10, 30}
	wantDone := []float64{10, 30, 35}
	for i, s := range slots {
		if s.Start != wantStart[i] || s.Completion != wantDone[i] {
			t.Errorf("slot %d = [%v, %v], want [%v, %v]", i, s.Start, s.Completion, wantStart[i], wantDone[i])
		}
	}
}

func TestCandidateMultiProcessorListScheduling(t *testing.T) {
	tasks := []*task.Task{
		mk(1, 0, 10, 100, 1),
		mk(2, 0, 20, 100, 1),
		mk(3, 0, 5, 100, 1),
		mk(4, 0, 1, 100, 1),
	}
	// Order 1,2,3,4 onto 2 procs: 1->[0,10], 2->[0,20], 3->[10,15], 4->[15,16].
	want := map[task.ID][2]float64{
		1: {0, 10}, 2: {0, 20}, 3: {10, 15}, 4: {15, 16},
	}
	for _, s := range listSchedule(0, 2, nil, RankOrder(FCFS{}, 0, tasks)) {
		w := want[s.Task.ID]
		if s.Start != w[0] || s.Completion != w[1] {
			t.Errorf("task %d slot = [%v, %v], want %v", s.Task.ID, s.Start, s.Completion, w)
		}
	}
}

func TestCandidateRespectsBusyProcessors(t *testing.T) {
	tasks := []*task.Task{mk(1, 0, 10, 100, 1)}
	c := BuildCandidate(FCFS{}, 100, 2, []float64{130, 105}, tasks)
	at, ok := c.Locate(1)
	if !ok {
		t.Fatal("task 1 missing from candidate")
	}
	// Earliest-free processor frees at 105.
	if at.Slot.Start != 105 || at.Slot.Completion != 115 {
		t.Errorf("slot = [%v, %v], want [105, 115]", at.Slot.Start, at.Slot.Completion)
	}
}

func TestCandidateBusyInPastClampsToNow(t *testing.T) {
	tasks := []*task.Task{mk(1, 0, 10, 100, 1)}
	c := BuildCandidate(FCFS{}, 100, 1, []float64{50}, tasks)
	if at, _ := c.Locate(1); at.Slot.Start != 100 {
		t.Errorf("start = %v, want 100 (stale busy time clamps to now)", at.Slot.Start)
	}
}

// TestCandidateBehind: the tasks ranked after a located task are Equation
// 8's summation set — the ones accepting it would delay.
func TestCandidateBehind(t *testing.T) {
	tasks := []*task.Task{
		mk(1, 0, 10, 100, 1),
		mk(2, 1, 10, 100, 1),
		mk(3, 2, 10, 100, 1),
	}
	c := BuildCandidate(FCFS{}, 5, 1, nil, tasks)
	behind := func(id task.ID) []*task.Task {
		at, ok := c.Locate(id)
		if !ok {
			t.Fatalf("task %d missing from candidate", id)
		}
		return c.Ranked()[at.Pos+1:]
	}
	if got := behind(1); len(got) != 2 || got[0].ID != 2 || got[1].ID != 3 {
		t.Errorf("behind task 1 = %v, want tasks 2,3", ids(got))
	}
	if got := behind(3); len(got) != 0 {
		t.Errorf("behind the last task = %v, want empty", ids(got))
	}
}

func ids(ts []*task.Task) []task.ID {
	out := make([]task.ID, len(ts))
	for i, t := range ts {
		out[i] = t.ID
	}
	return out
}

func TestCandidateSlotLookup(t *testing.T) {
	c := BuildCandidate(FCFS{}, 0, 1, nil, []*task.Task{mk(7, 0, 10, 100, 1)})
	if at, ok := c.Locate(7); !ok || at.Pos != 0 {
		t.Errorf("Locate(7) = %+v, %v; want position 0", at, ok)
	}
	if _, ok := c.Locate(8); ok {
		t.Error("Locate(8) found unexpectedly")
	}
}

func TestCandidateExpectedYields(t *testing.T) {
	// One processor, two equal-arrival tasks; second one's yield reflects
	// waiting behind the first.
	tasks := []*task.Task{
		mk(1, 0, 10, 100, 2),
		mk(2, 0, 10, 100, 2),
	}
	slots := listSchedule(0, 1, nil, RankOrder(FCFS{}, 0, tasks))
	if got := slots[0].Task.YieldAtCompletion(slots[0].Completion); got != 100 {
		t.Errorf("first slot yield = %v, want 100", got)
	}
	// Second completes at 20, delay 10, yield 100 - 20 = 80.
	if got := slots[1].Task.YieldAtCompletion(slots[1].Completion); got != 80 {
		t.Errorf("second slot yield = %v, want 80", got)
	}
}

func TestCandidateWorkConservation(t *testing.T) {
	// Property: under list scheduling with no arrivals, total busy time
	// equals total work, and makespan >= total work / processors.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(20)
		procs := 1 + rng.Intn(4)
		tasks := make([]*task.Task, n)
		var work float64
		for i := range tasks {
			tasks[i] = mk(task.ID(i+1), rng.Float64()*10, 1+rng.Float64()*50, rng.Float64()*100, rng.Float64())
			work += tasks[i].RPT
		}
		var busy, makespan float64
		for _, s := range listSchedule(20, procs, nil, RankOrder(SRPT{}, 20, tasks)) {
			busy += s.Completion - s.Start
			makespan = math.Max(makespan, s.Completion)
			if s.Start < 20 {
				t.Fatalf("slot starts before now: %+v", s)
			}
		}
		if math.Abs(busy-work) > 1e-6 {
			t.Fatalf("busy %v != work %v", busy, work)
		}
		if makespan < 20+work/float64(procs)-1e-9 {
			t.Fatalf("makespan %v below lower bound %v", makespan, 20+work/float64(procs))
		}
	}
}

func TestCandidateZeroProcsClamped(t *testing.T) {
	c := BuildCandidate(FCFS{}, 0, 0, nil, []*task.Task{mk(1, 0, 5, 10, 1)})
	if at, _ := c.Locate(1); at.Slot.Completion != 5 {
		t.Errorf("zero procs should clamp to 1; completion = %v", at.Slot.Completion)
	}
}

func TestEmptyCandidate(t *testing.T) {
	c := BuildCandidate(FCFS{}, 42, 2, nil, nil)
	if len(c.Ranked()) != 0 || len(listSchedule(42, 2, nil, nil)) != 0 {
		t.Errorf("empty candidate misbehaves: %+v", c)
	}
	if _, ok := c.Locate(1); ok {
		t.Error("Locate found a task in an empty candidate")
	}
}

func lazyTasks(n, firstID int, seed int64) []*task.Task {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*task.Task, n)
	for i := range out {
		out[i] = task.New(task.ID(firstID+i), rng.Float64()*50, 1+rng.Float64()*200,
			1+rng.Float64()*400, rng.Float64()*2, math.Inf(1))
	}
	return out
}

// eagerSlots is the reference list-schedule: rank with RankOrder, then give
// each task in turn the processor that frees first, found by linear scan.
func eagerSlots(p Policy, now float64, procs int, busy []float64, pending []*task.Task) []Slot {
	if procs < 1 {
		procs = 1
	}
	var free []float64
	for _, b := range busy {
		free = append(free, math.Max(b, now))
	}
	for len(free) < procs {
		free = append(free, now)
	}
	var out []Slot
	for _, t := range RankOrder(p, now, pending) {
		first := 0
		for i, f := range free {
			if f < free[first] {
				first = i
			}
		}
		at := free[first]
		free[first] = at + t.RPT
		out = append(out, Slot{Task: t, Start: at, Completion: at + t.RPT})
	}
	return out
}

// TestLazySlotsMatchEagerListSchedule: the slot a candidate computes on
// demand for each task (Locate's replay of the tasks ranked ahead) and the
// heap list-scheduler both equal an eager linear-scan list-schedule of the
// same inputs, float for float.
func TestLazySlotsMatchEagerListSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	policies := []Policy{FCFS{}, SRPT{}, SWPT{}, FirstPrice{},
		PresentValue{DiscountRate: 0.01}, FirstReward{Alpha: 0.3, DiscountRate: 0.01}}
	for trial := 0; trial < 60; trial++ {
		p := policies[trial%len(policies)]
		now := rng.Float64() * 100
		procs := rng.Intn(6) // 0 clamps to 1
		var busy []float64
		for i := rng.Intn(procs + 2); i > 0; i-- {
			busy = append(busy, now-20+rng.Float64()*200)
		}
		pending := lazyTasks(rng.Intn(120), 1, int64(trial))
		want := eagerSlots(p, now, procs, busy, pending)

		c := BuildCandidate(p, now, procs, busy, pending)
		heapSlots := listSchedule(now, procs, busy, c.Ranked())
		if len(heapSlots) != len(want) {
			t.Fatalf("trial %d: %d slots, want %d", trial, len(heapSlots), len(want))
		}
		for i, w := range want {
			at, ok := c.Locate(w.Task.ID)
			if !ok || at.Pos != i || at.Slot != w {
				t.Fatalf("trial %d %s: Locate(%d) = %+v, eager slot %d %+v", trial, p.Name(), w.Task.ID, at, i, w)
			}
			if heapSlots[i] != w {
				t.Fatalf("trial %d %s slot %d: %+v, eager %+v", trial, p.Name(), i, heapSlots[i], w)
			}
		}
	}
}
