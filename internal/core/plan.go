package core

import (
	"math"
	"slices"

	"repro/internal/task"
)

// PlanStarts selects the tasks to start on free processors at one
// scheduling event, in start order, and reports how many ranking passes
// (full Priorities evaluations) the selection cost.
//
// The seed dispatcher re-ranked the entire pending queue after every
// start — O(free · rank) per event, with rank itself O(n log n) (or worse
// under the general-cost ablation). PlanStarts ranks once and fills every
// free processor from that ranking whenever the policy's ranking is stable
// under removal (see StableRanker / ConditionalStableRanker): removing the
// started task cannot reorder the remainder, so the ranking's prefix is
// exactly what per-start re-ranking would have produced — including tie
// breaks, because RankOrder's (priority desc, ID asc) comparator is a
// total order. Only that prefix is needed, so it is selected rather than
// sorted: O(n log free) after the O(n) priorities, and identical to
// RankOrder(...)[:free] task for task.
//
// Policies with cross-task terms that do not cancel (FirstReward over
// bounded penalties, ScheduledPrice) keep per-start fidelity: each start
// recomputes priorities over the surviving set and picks the argmax,
// reproducing the seed's selection exactly (same accumulation order, same
// floats, same tie breaks) without the seed's per-start full sort.
//
// pending is not mutated. len(starts) == min(free, len(pending)).
// PlanStarts allocates its buffers afresh; a dispatcher that plans every
// scheduling event keeps a Planner instead.
func PlanStarts(policy Policy, now float64, free int, pending []*task.Task) (starts []*task.Task, rankOps int) {
	return new(Planner).PlanStarts(policy, now, free, pending)
}

// Planner holds the buffers PlanStarts ranks and selects into, so a
// dispatcher that plans every scheduling event allocates nothing once they
// have grown to its queue depth. The zero value is ready. A Planner is not
// safe for concurrent use, and the starts it returns are valid only until
// its next call.
type Planner struct {
	prios  []float64    // one ranking pass's priorities
	top    []int        // selectTop's heap of pending indexes
	rest   []*task.Task // the unstable path's surviving set
	starts []*task.Task
}

// PlanStarts is the package function PlanStarts, ranking into p's buffers.
func (p *Planner) PlanStarts(policy Policy, now float64, free int, pending []*task.Task) (starts []*task.Task, rankOps int) {
	if free <= 0 || len(pending) == 0 {
		return nil, 0
	}
	n := free
	if n > len(pending) {
		n = len(pending)
	}

	if StableUnderRemoval(policy, pending) {
		p.prios = policy.Priorities(p.prios, now, pending)
		return p.selectTop(pending, n), 1
	}

	// Unstable path: re-rank the surviving set before each start. The
	// working copy shrinks with order-preserving removal so Priorities sees
	// the tasks in the same slice order the seed's pending queue would
	// have, keeping floating-point accumulation — and therefore selection —
	// bit-identical to the seed.
	rest := append(p.rest[:0], pending...)
	starts = p.starts[:0]
	for len(starts) < n {
		prios := policy.Priorities(p.prios, now, rest)
		p.prios = prios
		rankOps++
		best := 0
		for i := 1; i < len(rest); i++ {
			if prios[i] > prios[best] || (prios[i] == prios[best] && rest[i].ID < rest[best].ID) {
				best = i
			}
		}
		starts = append(starts, rest[best])
		rest = append(rest[:best], rest[best+1:]...)
	}
	p.rest, p.starts = rest, starts
	return starts, rankOps
}

// selectTop returns the first n tasks of the stable sort of pending under
// compareRank, given their priorities in p.prios, in order, without sorting
// the rest: a heap of the n best seen so far, rooted at the one ranked
// last. Ties the comparator leaves (equal priority and ID) break by
// position in pending, as the stable sort breaks them, so the order is
// total and the prefix exact. A NaN priority is not ordered against the
// others; then the stable sort itself decides.
func (p *Planner) selectTop(pending []*task.Task, n int) []*task.Task {
	prios := p.prios
	ahead := func(i, j int) bool {
		if c := compareRank(prios[i], pending[i], prios[j], pending[j]); c != 0 {
			return c < 0
		}
		return i < j
	}
	top := p.top[:0]
	// down restores the heap below k: no index ranks behind its parent.
	down := func(k int) {
		for {
			last := k
			if l := 2*k + 1; l < len(top) && ahead(top[last], top[l]) {
				last = l
			}
			if r := 2*k + 2; r < len(top) && ahead(top[last], top[r]) {
				last = r
			}
			if last == k {
				return
			}
			top[k], top[last] = top[last], top[k]
			k = last
		}
	}
	for i, pr := range prios {
		if math.IsNaN(pr) {
			return sortRanked(prios, pending)[:n]
		}
		if len(top) < n {
			top = append(top, i)
			for k := len(top) - 1; k > 0; {
				parent := (k - 1) / 2
				if !ahead(top[parent], top[k]) {
					break
				}
				top[k], top[parent] = top[parent], top[k]
				k = parent
			}
		} else if ahead(i, top[0]) {
			top[0] = i
			down(0)
		}
	}
	p.top = top[:0]
	// Pop the last-ranked into the last open start until the heap is empty.
	starts := slices.Grow(p.starts[:0], len(top))[:len(top)]
	for k := len(top) - 1; k >= 0; k-- {
		starts[k] = pending[top[0]]
		top[0] = top[k]
		top = top[:k]
		down(0)
	}
	p.starts = starts
	return starts
}
