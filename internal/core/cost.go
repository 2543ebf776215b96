package core

import (
	"math"
	"sort"
	"sync"

	"repro/internal/task"
)

// unboundedLike reports whether t behaves as if its penalty were
// unbounded for cost purposes: either the bound really is infinite, or
// the decay is zero so no penalty ever accrues.
func unboundedLike(t *task.Task) bool {
	return t.Unbounded() || t.Decay <= 0
}

// unboundedSet reports whether every task in the set is unbounded-like,
// i.e. the Eq. 5 fast path applies.
func unboundedSet(tasks []*task.Task) bool {
	for _, t := range tasks {
		if !unboundedLike(t) {
			return false
		}
	}
	return true
}

// OpportunityCosts computes the opportunity cost of starting each task next
// (Equation 4):
//
//	cost_i = sum over j != i of d_j * MIN(RPT_i, expire_j)
//
// where expire_j is the remaining time over which j's value keeps decaying
// (it stops once j has expired against its penalty bound). Running i for
// RPT_i delays every competing task j by RPT_i, costing d_j per unit of
// that delay until j's value function bottoms out.
//
// When every competing task has an unbounded penalty the expiry terms
// vanish and the per-unit cost simplifies to Equation 5,
// cost_i/RPT_i = sum(d_j) - d_i, computable in O(n). For mixed or bounded
// sets, a sort over remaining decay times plus prefix sums evaluates the
// general form in O(n log n). forceGeneral selects the paper's O(n^2)
// formulation instead, the reference the tests and benchmarks compare the
// fast paths against.
func OpportunityCosts(now float64, tasks []*task.Task, forceGeneral bool) []float64 {
	return opportunityCosts(nil, now, tasks, forceGeneral)
}

// opportunityCosts is OpportunityCosts writing into dst's capacity, as
// Policy.Priorities does.
func opportunityCosts(dst []float64, now float64, tasks []*task.Task, forceGeneral bool) []float64 {
	if forceGeneral {
		return generalCosts(dst, now, tasks)
	}
	if unboundedSet(tasks) {
		return unboundedCosts(dst, tasks)
	}
	return sortedCosts(dst, now, tasks)
}

// unboundedCosts evaluates Equation 5: cost_i = RPT_i * (sum(d_j) - d_i).
func unboundedCosts(dst []float64, tasks []*task.Task) []float64 {
	var total float64
	for _, t := range tasks {
		total += t.Decay
	}
	costs := resize(dst, len(tasks))
	for i, t := range tasks {
		costs[i] = t.RPT * (total - t.Decay)
	}
	return costs
}

// generalCosts evaluates Equation 4 directly in O(n^2).
func generalCosts(dst []float64, now float64, tasks []*task.Task) []float64 {
	rem := remainingDecayTimes(now, tasks)
	costs := resize(dst, len(tasks))
	for i, ti := range tasks {
		var c float64
		for j, tj := range tasks {
			if i == j {
				continue
			}
			c += tj.Decay * math.Min(ti.RPT, rem[j])
		}
		costs[i] = c
	}
	return costs
}

// costScratch holds the working buffers sortedCosts needs per call. The
// kernel sits on the dispatch hot path and is invoked once per scheduling
// event (or, for unstable policies, once per start), so the buffers are
// pooled rather than reallocated; the costs go to the caller's buffer.
type costScratch struct {
	rem       []float64
	prefixDR  []float64
	prefixD   []float64
	sortedRem []float64
	order     []int
}

var costScratchPool = sync.Pool{New: func() any { return new(costScratch) }}

// grow readies the scratch buffers for n tasks, reusing capacity.
func (s *costScratch) grow(n int) {
	if cap(s.rem) < n {
		s.rem = make([]float64, n)
		s.sortedRem = make([]float64, n)
		s.prefixDR = make([]float64, n+1)
		s.prefixD = make([]float64, n+1)
		s.order = make([]int, n)
	}
	s.rem = s.rem[:n]
	s.sortedRem = s.sortedRem[:n]
	s.prefixDR = s.prefixDR[:n+1]
	s.prefixD = s.prefixD[:n+1]
	s.order = s.order[:n]
}

// sortedCosts evaluates Equation 4 in O(n log n). Sort competing tasks by
// remaining decay time r_j; for a candidate with remaining work R, tasks
// with r_j <= R contribute d_j*r_j and the rest contribute d_j*R, both
// available from prefix sums after the sort.
func sortedCosts(dst []float64, now float64, tasks []*task.Task) []float64 {
	n := len(tasks)
	scratch := costScratchPool.Get().(*costScratch)
	defer costScratchPool.Put(scratch)
	scratch.grow(n)

	rem := scratch.rem
	for j, t := range tasks {
		rem[j] = t.RemainingDecayTime(now)
	}

	order := scratch.order
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return rem[order[a]] < rem[order[b]] })

	// prefixDR[k] = sum of d_j*r_j over the first k tasks in remaining-time
	// order (capped terms); prefixD[k] = sum of d_j over the same tasks.
	// Infinite r_j never lands in the capped prefix (r_j <= R is false for
	// finite R), so the products stay finite.
	prefixDR := scratch.prefixDR
	prefixD := scratch.prefixD
	prefixDR[0], prefixD[0] = 0, 0
	var totalD float64
	for k, idx := range order {
		t := tasks[idx]
		dr := 0.0
		if !math.IsInf(rem[idx], 1) {
			dr = t.Decay * rem[idx]
		}
		prefixDR[k+1] = prefixDR[k] + dr
		prefixD[k+1] = prefixD[k] + t.Decay
		totalD += t.Decay
	}

	sortedRem := scratch.sortedRem
	for k, idx := range order {
		sortedRem[k] = rem[idx]
	}

	costs := resize(dst, n)
	for i, ti := range tasks {
		r := ti.RPT
		// Tasks with rem <= r contribute d*rem; the rest contribute d*r.
		k := sort.SearchFloat64s(sortedRem, r)
		// SearchFloat64s finds the first rem >= r; entries equal to r can go
		// on either side of the cap since d*min(r, rem) is identical there.
		cost := prefixDR[k] + (totalD-prefixD[k])*r
		// Remove the self term: i contributes d_i*min(r, rem_i) to the sums.
		cost -= ti.Decay * math.Min(r, rem[i])
		costs[i] = cost
	}
	return costs
}

func remainingDecayTimes(now float64, tasks []*task.Task) []float64 {
	rem := make([]float64, len(tasks))
	for j, t := range tasks {
		rem[j] = t.RemainingDecayTime(now)
	}
	return rem
}
