package core_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/task"
)

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
func eagerSlots(p core.Policy, now float64, procs int, busy []float64, pending []*task.Task) []core.Slot {
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
	var out []core.Slot
	for _, t := range core.RankOrder(p, now, pending) {
		first := 0
		for i, f := range free {
			if f < free[first] {
				first = i
			}
		}
		at := free[first]
		free[first] = at + t.RPT
		out = append(out, core.Slot{Task: t, Start: at, Completion: at + t.RPT})
	}
	return out
}

// TestInsertionQuoteLeavesSlotsUnmaterialised: an insertion quote —
// WithTask followed by admission.EvaluateInsertion — reads only the base's
// ranking, so the base is never list-scheduled; the first slot read is what
// schedules it.
func TestInsertionQuoteLeavesSlotsUnmaterialised(t *testing.T) {
	for _, p := range []core.Policy{core.FirstPrice{}, core.PresentValue{DiscountRate: 0.01},
		core.FirstReward{Alpha: 0.3, DiscountRate: 0.01}} {
		base := core.BuildCandidate(p, 60, 4, []float64{70, 95}, lazyTasks(80, 1, 3))
		for _, probe := range lazyTasks(10, 1000, 4) {
			ins, ok := base.WithTask(probe)
			if !ok {
				t.Fatalf("%s: WithTask unsupported", p.Name())
			}
			_ = admission.EvaluateInsertion(probe, base, ins, 0.01)
		}
		if base.Materialised() {
			t.Fatalf("%s: insertion quotes list-scheduled the base candidate", p.Name())
		}
		base.Makespan()
		if !base.Materialised() {
			t.Fatalf("%s: Makespan did not list-schedule the candidate", p.Name())
		}
	}
}

// TestLazySlotsMatchEagerListSchedule: the slots a candidate materialises
// on first read equal an eager list-schedule of the same inputs, float for
// float, whichever accessor triggers them.
func TestLazySlotsMatchEagerListSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	policies := []core.Policy{core.FCFS{}, core.SRPT{}, core.SWPT{}, core.FirstPrice{},
		core.PresentValue{DiscountRate: 0.01}, core.FirstReward{Alpha: 0.3, DiscountRate: 0.01}}
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

		c := core.BuildCandidate(p, now, procs, busy, pending)
		switch trial % 3 { // the first read materialises; vary which one
		case 1:
			c.Makespan()
		case 2:
			if len(pending) > 0 {
				c.Slot(pending[0].ID)
			}
		}
		got := c.Slots()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d slots, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d %s slot %d: %+v, eager %+v", trial, p.Name(), i, got[i], want[i])
			}
		}
	}
}

// TestCandidateConcurrentFirstReads: readers racing to materialise one
// candidate all see the same slots (run under -race).
func TestCandidateConcurrentFirstReads(t *testing.T) {
	pending := lazyTasks(200, 1, 5)
	c := core.BuildCandidate(core.FirstPrice{}, 10, 8, nil, pending)
	var wg sync.WaitGroup
	makespans := make([]float64, 8)
	for g := range makespans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Behind(pending[g].ID)
			makespans[g] = c.Makespan()
		}()
	}
	wg.Wait()
	for g, m := range makespans {
		if m != makespans[0] {
			t.Fatalf("reader %d saw makespan %g, reader 0 %g", g, m, makespans[0])
		}
	}
}
