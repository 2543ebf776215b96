package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/task"
)

// planTasks builds a randomized pending queue. bounded controls whether
// penalties are finite (which knocks FirstReward off its conditionally
// stable path).
func planTasks(n int, bounded bool, seed int64) []*task.Task {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*task.Task, n)
	for i := range out {
		bound := math.Inf(1)
		if bounded {
			bound = rng.Float64() * 200
		}
		out[i] = task.New(task.ID(i+1), rng.Float64()*50, 1+rng.Float64()*200,
			1+rng.Float64()*400, rng.Float64()*2, bound)
	}
	return out
}

// seedStarts is the seed dispatcher verbatim: re-rank the whole surviving
// queue with RankOrder before every start and take its head. PlanStarts
// must reproduce this selection exactly for every policy.
func seedStarts(p Policy, now float64, free int, pending []*task.Task) []*task.Task {
	rest := append([]*task.Task(nil), pending...)
	var starts []*task.Task
	for len(starts) < free && len(rest) > 0 {
		top := RankOrder(p, now, rest)[0]
		starts = append(starts, top)
		for i, t := range rest {
			if t == top {
				rest = append(rest[:i], rest[i+1:]...)
				break
			}
		}
	}
	return starts
}

func planPolicies() []Policy {
	return []Policy{
		FCFS{},
		SRPT{},
		SWPT{},
		FirstPrice{},
		PresentValue{DiscountRate: 0.01},
		FirstReward{Alpha: 0.3, DiscountRate: 0.01},
		FirstReward{Alpha: 0.8, DiscountRate: 0.02},
		FirstReward{Alpha: 0.3, DiscountRate: 0.01, ForceGeneralCost: true},
		ScheduledPrice{Processors: 4},
	}
}

// TestPlanStartsMatchesSeedPerStartRerank is the single-pass dispatch
// equivalence property: for every shipped policy, over bounded and
// unbounded mixes and a range of queue depths and free-processor counts,
// PlanStarts selects the exact task sequence the seed's re-rank-per-start
// loop selected — same tasks, same order, same tie breaks.
func TestPlanStartsMatchesSeedPerStartRerank(t *testing.T) {
	now := 60.0
	for _, p := range planPolicies() {
		for _, bounded := range []bool{false, true} {
			for _, n := range []int{1, 2, 7, 40, 150} {
				for _, free := range []int{1, 3, 16, 200} {
					pending := planTasks(n, bounded, int64(n)*7+int64(free))
					want := seedStarts(p, now, free, pending)
					got, rankOps := PlanStarts(p, now, free, pending)
					if len(got) != len(want) {
						t.Fatalf("%s bounded=%v n=%d free=%d: %d starts, want %d",
							p.Name(), bounded, n, free, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s bounded=%v n=%d free=%d: start[%d] = task %d, want task %d",
								p.Name(), bounded, n, free, i, got[i].ID, want[i].ID)
						}
					}
					if rankOps < 1 || rankOps > len(got) {
						t.Fatalf("%s bounded=%v n=%d free=%d: rankOps %d outside [1, %d]",
							p.Name(), bounded, n, free, rankOps, len(got))
					}
				}
			}
		}
	}
}

// tiedTasks builds a tie-heavy queue: every task copies one of three
// prototypes, so priorities repeat, and IDs are a shuffled permutation (or,
// with dupIDs, drawn with repeats) so the ID tie break does the work.
func tiedTasks(n int, dupIDs bool, seed int64) []*task.Task {
	rng := rand.New(rand.NewSource(seed))
	ids := rng.Perm(n)
	out := make([]*task.Task, n)
	for i := range out {
		id := ids[i] + 1
		if dupIDs {
			id = 1 + rng.Intn(n/2+1)
		}
		switch rng.Intn(3) {
		case 0:
			out[i] = task.New(task.ID(id), 10, 50, 100, 0.5, math.Inf(1))
		case 1:
			out[i] = task.New(task.ID(id), 10, 20, 40, 0.5, math.Inf(1))
		default:
			out[i] = task.New(task.ID(id), 30, 80, 100, 1, math.Inf(1))
		}
	}
	return out
}

// TestPlanStartsSelectsRankOrderPrefix: on the stable path PlanStarts
// selects the top tasks instead of sorting the queue, and the selection
// must be exactly RankOrder's prefix, pointer for pointer, on queues where
// most comparisons are ties.
func TestPlanStartsSelectsRankOrderPrefix(t *testing.T) {
	now := 60.0
	policies := []Policy{FCFS{}, SRPT{}, SWPT{}, FirstPrice{}, PresentValue{DiscountRate: 0.01},
		FirstReward{Alpha: 0.3, DiscountRate: 0.01}} // all-unbounded: conditionally stable
	for _, p := range policies {
		for _, n := range []int{1, 2, 5, 40, 300} {
			for _, dupIDs := range []bool{false, true} {
				pending := tiedTasks(n, dupIDs, int64(n))
				if !StableUnderRemoval(p, pending) {
					t.Fatalf("%s: not on the stable path", p.Name())
				}
				ranked := RankOrder(p, now, pending)
				for _, free := range []int{1, 2, 16, n, n + 3} {
					starts, rankOps := PlanStarts(p, now, free, pending)
					want := ranked[:min(free, n)]
					if rankOps != 1 || len(starts) != len(want) {
						t.Fatalf("%s n=%d free=%d: %d starts, %d rank ops; want %d, 1",
							p.Name(), n, free, len(starts), rankOps, len(want))
					}
					for i := range want {
						if starts[i] != want[i] {
							t.Fatalf("%s n=%d dupIDs=%v free=%d: start[%d] = task %d, RankOrder task %d",
								p.Name(), n, dupIDs, free, i, starts[i].ID, want[i].ID)
						}
					}
				}
			}
		}
	}
}

// TestPlanStartsRankOps pins the capability contract: stable policies rank
// once per event regardless of how many tasks start; unstable ones rank
// once per start.
func TestPlanStartsRankOps(t *testing.T) {
	now := 60.0
	cases := []struct {
		name    string
		policy  Policy
		bounded bool
		want    int // rank ops for free=8 over 20 pending
	}{
		{"FCFS", FCFS{}, true, 1},
		{"SRPT", SRPT{}, true, 1},
		{"SWPT", SWPT{}, true, 1},
		{"FirstPrice", FirstPrice{}, true, 1},
		{"PV", PresentValue{DiscountRate: 0.01}, true, 1},
		{"FirstReward unbounded", FirstReward{Alpha: 0.3, DiscountRate: 0.01}, false, 1},
		{"FirstReward bounded", FirstReward{Alpha: 0.3, DiscountRate: 0.01}, true, 8},
		{"FirstReward general ablation", FirstReward{Alpha: 0.3, DiscountRate: 0.01, ForceGeneralCost: true}, false, 8},
		{"ScheduledPrice", ScheduledPrice{Processors: 4}, true, 8},
	}
	for _, tc := range cases {
		pending := planTasks(20, tc.bounded, 11)
		_, rankOps := PlanStarts(tc.policy, now, 8, pending)
		if rankOps != tc.want {
			t.Errorf("%s: rankOps = %d, want %d", tc.name, rankOps, tc.want)
		}
	}
}

func TestPlanStartsEdgeCases(t *testing.T) {
	pending := planTasks(3, false, 3)
	if starts, ops := PlanStarts(FCFS{}, 0, 0, pending); starts != nil || ops != 0 {
		t.Errorf("free=0: got %d starts, %d ops", len(starts), ops)
	}
	if starts, ops := PlanStarts(FCFS{}, 0, 4, nil); starts != nil || ops != 0 {
		t.Errorf("empty pending: got %d starts, %d ops", len(starts), ops)
	}
	starts, _ := PlanStarts(FCFS{}, 0, 10, pending)
	if len(starts) != 3 {
		t.Errorf("free beyond queue: %d starts, want 3", len(starts))
	}
	// pending must not be mutated by the unstable path.
	before := append([]*task.Task(nil), pending...)
	PlanStarts(ScheduledPrice{}, 0, 2, pending)
	for i := range pending {
		if pending[i] != before[i] {
			t.Fatal("PlanStarts mutated the pending slice")
		}
	}
}

// TestWithTaskMatchesRebuild: incremental insertion must land the probe in
// the same rank position with the same start and completion a full rebuild
// assigns. Per-task-key policies are exact; FirstReward's insertion key is
// a frame-shifted reconstruction, so its times get a 1e-9 tolerance.
func TestWithTaskMatchesRebuild(t *testing.T) {
	now := 60.0
	busy := []float64{70, 95, 61}
	procs := 5
	exact := []Policy{FCFS{}, SRPT{}, SWPT{}, FirstPrice{}, PresentValue{DiscountRate: 0.01}}

	for _, p := range exact {
		for _, bounded := range []bool{false, true} {
			pending := planTasks(60, bounded, 21)
			probes := planTasks(16, bounded, 22)
			for i, pr := range probes {
				pr.ID = task.ID(1000 + i) // IDs disjoint from the base set
			}
			base := BuildCandidate(p, now, procs, busy, pending)
			for _, pr := range probes {
				ins, ok := base.WithTask(pr)
				if !ok {
					t.Fatalf("%s: WithTask unsupported", p.Name())
				}
				rebuilt := BuildCandidate(p, now, procs, busy, append(append([]*task.Task(nil), pending...), pr))
				slot, found := rebuilt.Slot(pr.ID)
				if !found {
					t.Fatalf("%s: probe missing from rebuild", p.Name())
				}
				if ins.Slot.Start != slot.Start || ins.Slot.Completion != slot.Completion {
					t.Fatalf("%s probe %d: incremental slot [%g, %g], rebuild [%g, %g]",
						p.Name(), pr.ID, ins.Slot.Start, ins.Slot.Completion, slot.Start, slot.Completion)
				}
				if want := rebuilt.index[pr.ID]; ins.Pos != want {
					t.Fatalf("%s probe %d: Pos %d, rebuild rank %d", p.Name(), pr.ID, ins.Pos, want)
				}
			}
		}
	}

	// FirstReward over an unbounded set: approximately equal.
	fr := FirstReward{Alpha: 0.3, DiscountRate: 0.01}
	pending := planTasks(60, false, 23)
	probes := planTasks(16, false, 24)
	for i, pr := range probes {
		pr.ID = task.ID(1000 + i)
	}
	base := BuildCandidate(fr, now, procs, busy, pending)
	for _, pr := range probes {
		ins, ok := base.WithTask(pr)
		if !ok {
			t.Fatal("FirstReward unbounded: WithTask unsupported")
		}
		rebuilt := BuildCandidate(fr, now, procs, busy, append(append([]*task.Task(nil), pending...), pr))
		slot, found := rebuilt.Slot(pr.ID)
		if !found {
			t.Fatal("FirstReward: probe missing from rebuild")
		}
		if math.Abs(ins.Slot.Start-slot.Start) > 1e-9 || math.Abs(ins.Slot.Completion-slot.Completion) > 1e-9 {
			t.Fatalf("FirstReward probe %d: incremental slot [%g, %g], rebuild [%g, %g]",
				pr.ID, ins.Slot.Start, ins.Slot.Completion, slot.Start, slot.Completion)
		}
	}
}

// TestWithTaskUnsupported: policies (or task sets) without a sound
// insertion key must decline so callers fall back to a full rebuild.
func TestWithTaskUnsupported(t *testing.T) {
	now := 60.0
	unboundedPending := planTasks(10, false, 31)
	boundedPending := planTasks(10, true, 32)
	unboundedProbe := planTasks(1, false, 33)[0]
	boundedProbe := planTasks(1, true, 34)[0]
	fr := FirstReward{Alpha: 0.3, DiscountRate: 0.01}

	cases := []struct {
		name    string
		policy  Policy
		pending []*task.Task
		probe   *task.Task
	}{
		{"FirstReward bounded base", fr, boundedPending, unboundedProbe},
		{"FirstReward bounded probe", fr, unboundedPending, boundedProbe},
		{"FirstReward general ablation", FirstReward{Alpha: 0.3, DiscountRate: 0.01, ForceGeneralCost: true}, unboundedPending, unboundedProbe},
		{"ScheduledPrice", ScheduledPrice{Processors: 2}, boundedPending, boundedProbe},
	}
	for _, tc := range cases {
		base := BuildCandidate(tc.policy, now, 4, nil, tc.pending)
		if _, ok := base.WithTask(tc.probe); ok {
			t.Errorf("%s: WithTask accepted, want fallback", tc.name)
		}
	}
}
