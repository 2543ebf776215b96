package site

import (
	"sync/atomic"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/task"
)

// RunningSlot is one occupied processor in a QuoteSnapshot: the time the
// occupying task was dispatched (or resumed) and the processing time it had
// left at that instant. The pair is enough to price the processor's release
// at any later clock reading without consulting live state.
type RunningSlot struct {
	Start   float64
	Runtime float64
}

// QuoteSnapshot is an immutable, versioned picture of a site's scheduling
// state — everything a quote needs and nothing a quote can change. Once
// published it is never mutated, so any number of readers may rank bids
// against it concurrently with zero locks. A published snapshot's Pending
// holds private copies of the queued tasks, decoupled from the live structs
// the scheduler mutates; the simulator's own view aliases its queue instead
// and is retired before the queue changes.
//
// Version is the site's state-version counter at capture. An award
// computed against a snapshot re-validates that the live version still
// matches under the write lock before committing; a mismatch means the
// scheduling state moved and the quote must be recomputed.
type QuoteSnapshot struct {
	Version      uint64
	Procs        int
	Policy       core.Policy
	DiscountRate float64
	Pending      []*task.Task
	Running      []RunningSlot

	// base caches the candidate schedule of Pending alone, ranked at the
	// clock reading in its Now. The rest of the snapshot never changes, so
	// now is the whole cache key; concurrent quoters may race to fill it,
	// and whichever identical build lands is kept.
	base atomic.Pointer[core.Candidate]
}

// BusyUntil prices each occupied processor's release time as of now: the
// remaining work is Runtime - (now - Start) clamped at zero, and the
// release is now + remaining.
func (qs *QuoteSnapshot) BusyUntil(now float64) []float64 {
	busy := make([]float64, 0, len(qs.Running))
	for _, r := range qs.Running {
		rem := r.Runtime - (now - r.Start)
		if rem < 0 {
			rem = 0
		}
		busy = append(busy, now+rem)
	}
	return busy
}

// Quote evaluates a proposed task against the snapshot at clock reading
// now (Section 6): the slot the probe would take in the candidate schedule
// of pending+probe, and the cost it would impose on the tasks ranked behind
// it. It acquires no locks and leaves the snapshot's state untouched.
//
// When the policy has an insertion key for the probe (core.Inserter), the
// probe is inserted into a base candidate of Pending: one ranking, an
// O(log n) search and a replay of the tasks ahead. The base is cached on
// the snapshot per clock reading, so quotes at one instant share it.
// Otherwise the candidate of pending+probe is built in full.
func (qs *QuoteSnapshot) Quote(now float64, probe *task.Task) (admission.Quote, error) {
	q, _, err := qs.quote(now, probe)
	return q, err
}

// quote is Quote, also reporting whether the cached base candidate
// answered it; every other quote built one candidate schedule.
func (qs *QuoteSnapshot) quote(now float64, probe *task.Task) (q admission.Quote, reused bool, err error) {
	if err := probe.Validate(); err != nil {
		return admission.Quote{}, false, err
	}
	if ins, ok := qs.Policy.(core.Inserter); ok {
		// Probe the key first: for task sets the policy has no key for (e.g.
		// FirstReward over bounded penalties) a base would be wasted.
		if _, ok := ins.InsertKey(now, probe, qs.Pending); ok {
			base := qs.base.Load()
			reused = base != nil && base.Now == now
			if !reused {
				base = core.BuildCandidate(qs.Policy, now, qs.Procs, qs.BusyUntil(now), qs.Pending)
				qs.base.Store(base)
			}
			if at, ok := base.WithTask(probe); ok {
				return admission.EvaluateInsertion(probe, base, at, qs.DiscountRate), reused, nil
			}
		}
	}
	with := make([]*task.Task, 0, len(qs.Pending)+1)
	with = append(with, qs.Pending...)
	with = append(with, probe)
	cand := core.BuildCandidate(qs.Policy, now, qs.Procs, qs.BusyUntil(now), with)
	q, err = admission.Evaluate(probe, cand, qs.DiscountRate)
	return q, false, err
}
