// Package core implements the paper's primary contribution: value-based
// scheduling heuristics that balance risk and reward (Sections 4-5).
//
// A scheduling policy ranks the tasks competing for processors. Baseline
// policies (FCFS, SRPT) ignore value; value-based policies (SWPT,
// FirstPrice, PresentValue, FirstReward) rank by combinations of expected
// gain, discounted gain, and opportunity cost. The package also provides
// the candidate-schedule builder used to estimate completion times during
// negotiation and admission control (Section 6).
package core

import (
	"fmt"
	"slices"

	"repro/internal/task"
)

// Policy ranks a set of competing tasks at an instant. Priorities writes
// one priority per task into dst[:0], aligned with the input slice, and
// returns it; higher priorities run first. dst may be nil: its contents
// are ignored and only its capacity is reused, so a caller that ranks
// repeatedly into the returned slice allocates nothing once it has grown.
// Policies receive the entire competing set at once so that heuristics
// with cross-task terms (opportunity cost) can share work across tasks.
type Policy interface {
	Name() string
	Priorities(dst []float64, now float64, tasks []*task.Task) []float64
}

// resize returns dst with length n, reusing its capacity when it suffices.
func resize(dst []float64, n int) []float64 { return slices.Grow(dst[:0], n)[:n] }

// StableRanker is an optional Policy capability. A policy reports
// StableUnderRemoval() == true when the relative ranking of any two tasks
// is unaffected by removing other tasks from the competing set — i.e. its
// priorities carry no cross-task terms. The dispatcher exploits this to
// rank a pending queue once per scheduling event and fill every free
// processor from that single order, instead of re-ranking after each start.
type StableRanker interface {
	StableUnderRemoval() bool
}

// ConditionalStableRanker refines StableRanker for policies whose
// cross-task terms vanish on particular task sets. FirstReward implements
// it: over an all-unbounded set, Equation 5 makes every removal shift all
// priorities uniformly, so the order survives and no re-rank is required
// for fidelity.
type ConditionalStableRanker interface {
	StableUnderRemovalFor(tasks []*task.Task) bool
}

// StableUnderRemoval reports whether p's ranking of tasks survives removing
// tasks from the set, consulting the capability interfaces above. Policies
// that declare neither are conservatively treated as unstable.
func StableUnderRemoval(p Policy, tasks []*task.Task) bool {
	if cs, ok := p.(ConditionalStableRanker); ok && cs.StableUnderRemovalFor(tasks) {
		return true
	}
	if st, ok := p.(StableRanker); ok {
		return st.StableUnderRemoval()
	}
	return false
}

// Inserter is an optional Policy capability enabling incremental candidate
// schedules. InsertKey returns the priority task t would receive from
// Priorities over base with t added, expressed in the same frame as the
// priorities already computed for base — directly comparable against them.
// The second result is false when the policy cannot produce such a key for
// this task set (cross-task terms that do not reduce), in which case the
// caller falls back to a full rebuild.
type Inserter interface {
	InsertKey(now float64, t *task.Task, base []*task.Task) (float64, bool)
}

// FCFS is First Come First Served: tasks run in arrival order. It is one
// of the paper's two value-blind baselines (Section 4).
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "FCFS" }

// Priorities implements Policy: earlier arrivals get higher priority.
func (FCFS) Priorities(dst []float64, _ float64, tasks []*task.Task) []float64 {
	p := resize(dst, len(tasks))
	for i, t := range tasks {
		p[i] = -t.Arrival
	}
	return p
}

// StableUnderRemoval implements StableRanker: arrival order is per-task.
func (FCFS) StableUnderRemoval() bool { return true }

// InsertKey implements Inserter.
func (FCFS) InsertKey(_ float64, t *task.Task, _ []*task.Task) (float64, bool) {
	return -t.Arrival, true
}

// SRPT is Shortest Remaining Processing Time, the paper's second
// value-blind baseline (Section 4).
type SRPT struct{}

// Name implements Policy.
func (SRPT) Name() string { return "SRPT" }

// Priorities implements Policy: shorter remaining time gets higher
// priority.
func (SRPT) Priorities(dst []float64, _ float64, tasks []*task.Task) []float64 {
	p := resize(dst, len(tasks))
	for i, t := range tasks {
		p[i] = -t.RPT
	}
	return p
}

// StableUnderRemoval implements StableRanker: remaining time is per-task.
func (SRPT) StableUnderRemoval() bool { return true }

// InsertKey implements Inserter.
func (SRPT) InsertKey(_ float64, t *task.Task, _ []*task.Task) (float64, bool) {
	return -t.RPT, true
}

// SWPT is Shortest Weighted Processing Time, the classical heuristic for
// Total Weighted Completion Time (Section 4): rank by decay_i / RPT_i. It
// is optimal for TWCT when all tasks arrive together, and is the pure-cost
// limit the paper compares FirstReward against.
type SWPT struct{}

// Name implements Policy.
func (SWPT) Name() string { return "SWPT" }

// Priorities implements Policy: higher decay per unit of remaining work
// gets higher priority.
func (SWPT) Priorities(dst []float64, _ float64, tasks []*task.Task) []float64 {
	p := resize(dst, len(tasks))
	for i, t := range tasks {
		p[i] = t.Decay / t.RPT
	}
	return p
}

// StableUnderRemoval implements StableRanker: decay/RPT is per-task.
func (SWPT) StableUnderRemoval() bool { return true }

// InsertKey implements Inserter.
func (SWPT) InsertKey(_ float64, t *task.Task, _ []*task.Task) (float64, bool) {
	return t.Decay / t.RPT, true
}

// FirstPrice is Millennium's greedy value heuristic (Section 4): rank by
// the task's unit gain — expected yield per unit of resource per unit of
// time, yield_i / RPT_i, with the yield evaluated as if the task started
// now.
type FirstPrice struct{}

// Name implements Policy.
func (FirstPrice) Name() string { return "FirstPrice" }

// Priorities implements Policy.
func (FirstPrice) Priorities(dst []float64, now float64, tasks []*task.Task) []float64 {
	p := resize(dst, len(tasks))
	for i, t := range tasks {
		p[i] = t.ExpectedYield(now) / t.RPT
	}
	return p
}

// StableUnderRemoval implements StableRanker: unit gain is per-task.
func (FirstPrice) StableUnderRemoval() bool { return true }

// InsertKey implements Inserter.
func (FirstPrice) InsertKey(now float64, t *task.Task, _ []*task.Task) (float64, bool) {
	return t.ExpectedYield(now) / t.RPT, true
}

// PresentValue discounts future gains (Section 5.1): rank by PV_i / RPT_i
// where PV_i = yield_i / (1 + DiscountRate*RPT_i) (Equation 3). Higher
// discount rates make the scheduler more risk-averse, preferring short
// tasks whose gains are realized quickly. DiscountRate 0 reduces to
// FirstPrice.
type PresentValue struct {
	DiscountRate float64
}

// Name implements Policy.
func (p PresentValue) Name() string { return fmt.Sprintf("PV(rate=%g)", p.DiscountRate) }

// Priorities implements Policy.
func (p PresentValue) Priorities(dst []float64, now float64, tasks []*task.Task) []float64 {
	out := resize(dst, len(tasks))
	for i, t := range tasks {
		out[i] = PV(t, now, p.DiscountRate) / t.RPT
	}
	return out
}

// StableUnderRemoval implements StableRanker: discounted unit gain is
// per-task.
func (PresentValue) StableUnderRemoval() bool { return true }

// InsertKey implements Inserter.
func (p PresentValue) InsertKey(now float64, t *task.Task, _ []*task.Task) (float64, bool) {
	return PV(t, now, p.DiscountRate) / t.RPT, true
}

// PV computes a task's present value at an instant per Equation 3:
// yield_i / (1 + discountRate * RPT_i), with yield evaluated for an
// immediate start.
func PV(t *task.Task, now, discountRate float64) float64 {
	return t.ExpectedYield(now) / (1 + discountRate*t.RPT)
}

// FirstReward is the paper's configurable risk/reward heuristic
// (Equation 6): rank by
//
//	reward_i = (alpha*PV_i - (1-alpha)*cost_i) / RPT_i
//
// where cost_i is the opportunity cost of running i next (Equation 4).
// Alpha 1 with DiscountRate 0 reduces to FirstPrice; alpha 0 reduces to a
// variant of SWPT that considers only cost.
type FirstReward struct {
	Alpha        float64
	DiscountRate float64
}

// Name implements Policy.
func (p FirstReward) Name() string {
	return fmt.Sprintf("FirstReward(alpha=%g,rate=%g)", p.Alpha, p.DiscountRate)
}

// Priorities implements Policy. The opportunity costs are computed into
// dst and each is then replaced by its task's reward.
func (p FirstReward) Priorities(dst []float64, now float64, tasks []*task.Task) []float64 {
	out := opportunityCosts(dst, now, tasks, false)
	for i, t := range tasks {
		out[i] = (p.Alpha*PV(t, now, p.DiscountRate) - (1-p.Alpha)*out[i]) / t.RPT
	}
	return out
}

// StableUnderRemovalFor implements ConditionalStableRanker. Over a set
// whose penalties are all effectively unbounded, the Eq. 5 cost of task i
// is RPT_i·(Σd − d_i); removing task k from the set subtracts
// (1−alpha)·d_k from every task's reward uniformly, so the relative order
// survives and one rank per dispatch event is exact. Bounded penalties
// break the uniform shift (Eq. 4's min(RPT_i, expire_j) terms differ per
// task) and force re-ranking.
func (p FirstReward) StableUnderRemovalFor(tasks []*task.Task) bool {
	return unboundedSet(tasks)
}

// InsertKey implements Inserter for the all-unbounded case. Inserting t
// into base S grows every base task's Eq. 5 cost by RPT_j·d_t, shifting
// every base priority uniformly by −(1−alpha)·d_t. Rather than re-derive
// all base priorities in the S∪{t} frame, return t's priority shifted
// *into the base frame* (add (1−alpha)·d_t): the comparison outcome is
// identical and the priorities already computed for base can be reused
// untouched. t's Eq. 5 cost over S∪{t} is RPT_t·totalD_S; shifting adds
// (1−alpha)·d_t, i.e. the cost term becomes RPT_t·(totalD_S − d_t).
func (p FirstReward) InsertKey(now float64, t *task.Task, base []*task.Task) (float64, bool) {
	if !unboundedLike(t) || !unboundedSet(base) {
		return 0, false
	}
	var totalD float64
	for _, b := range base {
		totalD += b.Decay
	}
	cost := t.RPT * (totalD - t.Decay) // base-frame cost term
	return (p.Alpha*PV(t, now, p.DiscountRate) - (1-p.Alpha)*cost) / t.RPT, true
}
