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
	c := BuildCandidate(FCFS{}, 0, 1, nil, tasks)
	wantStart := []float64{0, 10, 30}
	wantDone := []float64{10, 30, 35}
	for i, s := range c.Slots() {
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
	c := BuildCandidate(FCFS{}, 0, 2, nil, tasks)
	// Order 1,2,3,4 onto 2 procs: 1->[0,10], 2->[0,20], 3->[10,15], 4->[15,16].
	want := map[task.ID][2]float64{
		1: {0, 10}, 2: {0, 20}, 3: {10, 15}, 4: {15, 16},
	}
	for _, s := range c.Slots() {
		w := want[s.Task.ID]
		if s.Start != w[0] || s.Completion != w[1] {
			t.Errorf("task %d slot = [%v, %v], want %v", s.Task.ID, s.Start, s.Completion, w)
		}
	}
	if got := c.Makespan(); got != 20 {
		t.Errorf("Makespan() = %v, want 20", got)
	}
}

func TestCandidateRespectsBusyProcessors(t *testing.T) {
	tasks := []*task.Task{mk(1, 0, 10, 100, 1)}
	c := BuildCandidate(FCFS{}, 100, 2, []float64{130, 105}, tasks)
	s, ok := c.Slot(1)
	if !ok {
		t.Fatal("task 1 missing from candidate")
	}
	// Earliest-free processor frees at 105.
	if s.Start != 105 || s.Completion != 115 {
		t.Errorf("slot = [%v, %v], want [105, 115]", s.Start, s.Completion)
	}
}

func TestCandidateBusyInPastClampsToNow(t *testing.T) {
	tasks := []*task.Task{mk(1, 0, 10, 100, 1)}
	c := BuildCandidate(FCFS{}, 100, 1, []float64{50}, tasks)
	if s, _ := c.Slot(1); s.Start != 100 {
		t.Errorf("start = %v, want 100 (stale busy time clamps to now)", s.Start)
	}
}

func TestCandidateBehind(t *testing.T) {
	tasks := []*task.Task{
		mk(1, 0, 10, 100, 1),
		mk(2, 1, 10, 100, 1),
		mk(3, 2, 10, 100, 1),
	}
	c := BuildCandidate(FCFS{}, 5, 1, nil, tasks)
	behind := c.Behind(1)
	if len(behind) != 2 || behind[0].ID != 2 || behind[1].ID != 3 {
		t.Errorf("Behind(1) = %v, want tasks 2,3", ids(behind))
	}
	if got := c.Behind(3); len(got) != 0 {
		t.Errorf("Behind(last) = %v, want empty", ids(got))
	}
	if got := c.Behind(99); got != nil {
		t.Errorf("Behind(missing) = %v, want nil", ids(got))
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
	if _, ok := c.Slot(7); !ok {
		t.Error("Slot(7) not found")
	}
	if _, ok := c.Slot(8); ok {
		t.Error("Slot(8) found unexpectedly")
	}
}

func TestCandidateExpectedYields(t *testing.T) {
	// One processor, two equal-arrival tasks; second one's yield reflects
	// waiting behind the first.
	tasks := []*task.Task{
		mk(1, 0, 10, 100, 2),
		mk(2, 0, 10, 100, 2),
	}
	c := BuildCandidate(FCFS{}, 0, 1, nil, tasks)
	if got := c.Slots()[0].ExpectedYield(); got != 100 {
		t.Errorf("first slot yield = %v, want 100", got)
	}
	// Second completes at 20, delay 10, yield 100 - 20 = 80.
	if got := c.Slots()[1].ExpectedYield(); got != 80 {
		t.Errorf("second slot yield = %v, want 80", got)
	}
	if got := c.TotalExpectedYield(); got != 180 {
		t.Errorf("TotalExpectedYield() = %v, want 180", got)
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
		c := BuildCandidate(SRPT{}, 20, procs, nil, tasks)
		var busy float64
		for _, s := range c.Slots() {
			busy += s.Completion - s.Start
			if s.Start < 20 {
				t.Fatalf("slot starts before now: %+v", s)
			}
		}
		if math.Abs(busy-work) > 1e-6 {
			t.Fatalf("busy %v != work %v", busy, work)
		}
		if c.Makespan() < 20+work/float64(procs)-1e-9 {
			t.Fatalf("makespan %v below lower bound %v", c.Makespan(), 20+work/float64(procs))
		}
	}
}

func TestCandidateZeroProcsClamped(t *testing.T) {
	c := BuildCandidate(FCFS{}, 0, 0, nil, []*task.Task{mk(1, 0, 5, 10, 1)})
	if s, _ := c.Slot(1); s.Completion != 5 {
		t.Errorf("zero procs should clamp to 1; completion = %v", s.Completion)
	}
}

func TestEmptyCandidate(t *testing.T) {
	c := BuildCandidate(FCFS{}, 42, 2, nil, nil)
	if len(c.Slots()) != 0 || c.Makespan() != 42 || c.TotalExpectedYield() != 0 {
		t.Errorf("empty candidate misbehaves: %+v", c)
	}
}
