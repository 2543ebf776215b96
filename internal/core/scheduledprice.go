package core

import (
	"fmt"
	"sort"

	"repro/internal/task"
)

// ScheduledPrice is the Millennium formulation of FirstPrice in which a
// task's price is its yield at the expected completion time *in the
// candidate schedule*, not under an immediate hypothetical start — "the
// Millennium study refers to it as the task's price in the schedule"
// (Section 4). Because queue position determines the price and the price
// determines queue position, the ranking is a fixed point; the policy
// approximates it with a bounded number of reorder rounds seeded by the
// immediate-start FirstPrice order.
//
// Compared with FirstPrice, deep-queue tasks see their prices collapse to
// their bounds early (their scheduled completions are far out), which
// stabilizes the back of the queue under load.
type ScheduledPrice struct {
	// Processors the internal candidate schedule assumes. Zero means 1.
	Processors int
	// Rounds of price/order refinement. Zero means 2.
	Rounds int
}

// Name implements Policy.
func (p ScheduledPrice) Name() string {
	return fmt.Sprintf("ScheduledPrice(procs=%d)", p.effProcs())
}

func (p ScheduledPrice) effProcs() int {
	if p.Processors < 1 {
		return 1
	}
	return p.Processors
}

func (p ScheduledPrice) effRounds() int {
	if p.Rounds < 1 {
		return 2
	}
	return p.Rounds
}

// Priorities implements Policy.
func (p ScheduledPrice) Priorities(dst []float64, now float64, tasks []*task.Task) []float64 {
	n := len(tasks)
	prios := resize(dst, n)
	if n == 0 {
		return prios
	}

	// Seed with the immediate-start FirstPrice order.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i, t := range tasks {
		prios[i] = t.ExpectedYield(now) / t.RPT
	}
	p.sortByPriority(order, prios, tasks)

	for round := 0; round < p.effRounds(); round++ {
		ordered := make([]*task.Task, n)
		for pos, idx := range order {
			ordered[pos] = tasks[idx]
		}
		slots := listSchedule(now, p.effProcs(), nil, ordered)
		for pos, idx := range order {
			prios[idx] = tasks[idx].YieldAtCompletion(slots[pos].Completion) / tasks[idx].RPT
		}
		p.sortByPriority(order, prios, tasks)
	}
	return prios
}

// StableUnderRemoval implements StableRanker. A task's scheduled price
// depends on its position in the candidate schedule, so removing the task
// ahead of it changes every price behind it: re-rank per start.
func (ScheduledPrice) StableUnderRemoval() bool { return false }

// sortByPriority orders indexes by descending priority with ID tie-breaks,
// matching RankOrder's determinism contract.
func (ScheduledPrice) sortByPriority(order []int, prios []float64, tasks []*task.Task) {
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := prios[order[a]], prios[order[b]]
		if pa != pb {
			return pa > pb
		}
		return tasks[order[a]].ID < tasks[order[b]].ID
	})
}

var _ Policy = ScheduledPrice{}
