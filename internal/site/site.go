// Package site implements a grid task-service site: a pool of
// interchangeable processors driven by a value-based scheduling policy,
// with optional preemption and bid-time admission control (Sections 4-6 of
// the paper).
//
// A site is event-driven. Task submissions and completions are the only
// events; at each, the site ranks its pending tasks under its policy and
// dispatches (or preempts) accordingly. Ranking happens once per event
// when the policy's order is stable under removal (core.StableRanker) and
// per start otherwise; either way the resulting schedule is identical to
// re-ranking before every start. Context-switch time is zero and
// predicted run times are accurate, matching the paper's simplifying
// assumptions.
package site

import (
	"fmt"
	"math"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
)

// Config parameterizes a site. It is a value: New validates it once and
// the site never mutates it afterwards. Observers (completion hooks,
// audit recorders) are attached through Options on New, not Config
// fields, so a validated Config can be shared and reused freely.
type Config struct {
	// Processors is the number of interchangeable nodes. Each task occupies
	// exactly one (the paper's single-node resource-request assumption).
	// It is the site's *initial* capacity; GrowCapacity/ShrinkCapacity
	// adjust the live count, readable via Site.Processors.
	Processors int
	// Policy ranks competing tasks. Required.
	Policy core.Policy
	// Preemptive allows a newly ranked task to displace the lowest-priority
	// running task; a suspended task resumes later with its remaining
	// processing time.
	Preemptive bool
	// PreemptionRestart makes preemption lose progress: a preempted task
	// restarts from scratch (RPT back to its full run time) when it is next
	// dispatched. This models batch jobs without checkpointing and is the
	// regime where committing resources to a long task is a genuinely risky
	// investment — the dynamic the PresentValue heuristic mitigates.
	PreemptionRestart bool
	// PreemptRanking selects how running tasks are ranked against pending
	// ones when deciding preemption. See the PreemptRanking constants.
	PreemptRanking PreemptRanking
	// Admission decides bid acceptance. Nil means admission.AcceptAll.
	Admission admission.Policy
	// DiscountRate is the present-value discount used when quoting bids for
	// admission control (Equation 7's PV term).
	DiscountRate float64
	// ParkExpired diverts bounded-penalty tasks that have already expired to
	// a parking list instead of ever running them; the site realizes the
	// full penalty immediately and frees the capacity. Section 3 notes a
	// site incurs no further cost for discarding an expired task. Off by
	// default: the paper's Section 5 experiments run every accepted task.
	ParkExpired bool
}

// Option customizes a Site at construction time. Options replace the old
// pattern of mutating a validated Config (Site.SetOnComplete): the Config
// stays immutable and everything attachable after validation goes through
// here.
type Option func(*Site)

// WithRecorder attaches an audit recorder: it receives an Event for every
// scheduling decision (submissions, dispatches, preemptions, completions,
// ranking and quote-cache telemetry). Multiple WithRecorder options
// compose via MultiRecorder.
func WithRecorder(r Recorder) Option {
	return func(s *Site) { s.recorder = MultiRecorder(s.recorder, r) }
}

// WithOnComplete registers an observer of every realized task outcome
// (completion or parking). The market layer uses it to settle contracts.
// Observers run in registration order; multiple options compose.
func WithOnComplete(fn func(*task.Task)) Option {
	return func(s *Site) { s.ObserveCompletions(fn) }
}

// PreemptRanking selects the remaining-work basis used to rank a running
// task when a pending task challenges it for a processor.
type PreemptRanking int

const (
	// ShieldProgress ranks a running task by its remaining processing time.
	// As a task progresses its unit gain rises and it becomes ever harder
	// to displace — the economically rational comparison when suspended
	// work is resumed (and even under restart, since the remaining cost to
	// finish is what letting it run actually costs).
	ShieldProgress PreemptRanking = iota
	// RestartCost ranks a running task at its full run time, the price
	// basis of a scheduler that charges every task its from-scratch cost.
	// Progress earns no protection, so fresh high-value arrivals readily
	// displace partially-done work. Combined with PreemptionRestart this is
	// the regime in which deferred gains are genuinely at risk and
	// discounting them (PresentValue) pays off, reproducing Figure 3.
	RestartCost
)

func (c Config) validate() error {
	if c.Processors < 1 {
		return fmt.Errorf("site: processors %d must be >= 1", c.Processors)
	}
	if c.Policy == nil {
		return fmt.Errorf("site: policy is required")
	}
	if c.PreemptRanking == RestartCost && !c.PreemptionRestart {
		// Ranking running tasks at their restart cost only makes sense when
		// preemption actually restarts them; with suspend/resume semantics
		// the mismatch lets a preempted task immediately out-rank its
		// replacement and the dispatcher oscillates forever.
		return fmt.Errorf("site: RestartCost preempt ranking requires PreemptionRestart")
	}
	return nil
}

// execution tracks a task occupying a processor.
type execution struct {
	t     *task.Task
	done  *sim.Handle
	start float64 // dispatch or resume time
}

// Site is a task-service site attached to a simulation engine.
type Site struct {
	ID      string
	engine  *sim.Engine
	cfg     Config
	adm     admission.Policy
	procs   int // live processor count (cfg.Processors is the initial value)
	pending []*task.Task
	running map[task.ID]*execution
	free    int

	recorder   Recorder
	onComplete []func(*task.Task)

	// version counts scheduling-state changes (queue, running set,
	// capacity). view is the quote snapshot of the current version; it
	// aliases the pending queue, so invalidate retires it with every
	// change. Quotes at one (now, version) share its base candidate.
	version uint64
	view    *QuoteSnapshot

	// Ranking scratch, reused across scheduling events: the planner's
	// buffers for dispatch, and for preemptIfBeneficial the ranked union
	// (pending first, then running), its priorities, and for its running
	// part the executions, their stored RPTs and whether each may be
	// preempted.
	planner     core.Planner
	union       []*task.Task
	prios       []float64
	unionEx     []*execution
	savedRPT    []float64
	preemptable []bool

	metrics Metrics
}

// New constructs a site on the engine. It panics on an invalid
// configuration: a site is always built from code, not user input, and a
// bad config is a programming error.
func New(engine *sim.Engine, id string, cfg Config, opts ...Option) *Site {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	adm := cfg.Admission
	if adm == nil {
		adm = admission.AcceptAll{}
	}
	s := &Site{
		ID:      id,
		engine:  engine,
		cfg:     cfg,
		adm:     adm,
		procs:   cfg.Processors,
		running: make(map[task.ID]*execution),
		free:    cfg.Processors,
		metrics: Metrics{FirstArrival: math.Inf(1)},
	}
	for _, opt := range opts {
		if opt != nil {
			opt(s)
		}
	}
	return s
}

// Config returns the site's configuration as validated at construction.
// It does not reflect later capacity changes; use Processors for the live
// count.
func (s *Site) Config() Config { return s.cfg }

// Processors returns the site's current processor count, including any
// capacity grown or shrunk since construction.
func (s *Site) Processors() int { return s.procs }

// Admission returns the site's effective admission policy.
func (s *Site) Admission() admission.Policy { return s.adm }

// ObserveCompletions registers fn to observe every realized task outcome
// (completion or parking), in addition to any observers already attached.
// It must be called before the simulation starts.
func (s *Site) ObserveCompletions(fn func(*task.Task)) {
	if fn != nil {
		s.onComplete = append(s.onComplete, fn)
	}
}

// Engine returns the simulation engine the site is attached to.
func (s *Site) Engine() *sim.Engine { return s.engine }

// invalidate marks the scheduling state changed, retiring the quote view
// and with it the cached base candidate schedule.
func (s *Site) invalidate() {
	s.version++
	s.view = nil
}

// Quote integrates a proposed task into the site's current candidate
// schedule and returns its evaluation without accepting it. This is the
// first half of the negotiation procedure in Section 6.
//
// The site prices a bid exactly as the live server does, through
// QuoteSnapshot.Quote on a view of its current state: m competing
// proposals at one instant cost one base ranking plus m cheap insertions
// when the policy supports them (core.Inserter), and a full build each
// otherwise.
func (s *Site) Quote(t *task.Task) (admission.Quote, error) {
	if s.view == nil {
		s.view = s.snapshot()
	}
	q, reused, err := s.view.quote(s.engine.Now(), t)
	if err != nil {
		return admission.Quote{}, err
	}
	if reused {
		s.metrics.QuoteReuses++
		s.recordEvent(EventQuoteHit, 0, 0)
	} else {
		s.metrics.QuoteBuilds++
		s.recordEvent(EventQuoteMiss, 0, 0)
	}
	return q, nil
}

// snapshot captures the current scheduling state for quoting. Pending
// aliases the site's queue rather than copying it: the simulator is
// single-threaded, and invalidate retires the view before the queue next
// changes.
func (s *Site) snapshot() *QuoteSnapshot {
	qs := &QuoteSnapshot{
		Version:      s.version,
		Procs:        s.procs,
		Policy:       s.cfg.Policy,
		DiscountRate: s.cfg.DiscountRate,
		Pending:      s.pending,
	}
	if len(s.running) > 0 {
		qs.Running = make([]RunningSlot, 0, len(s.running))
		for _, ex := range s.running {
			qs.Running = append(qs.Running, RunningSlot{Start: ex.start, Runtime: ex.t.RPT})
		}
	}
	return qs
}

// Submit offers a task to the site at the current simulation time and
// reports whether the site accepted it. An invalid task is an error. The
// site prices the task against its candidate schedule (Quote) only when
// something reads the price: an admission policy that reads quotes, or a
// recorder, which books the quote's terms. Otherwise the admission policy
// decides on a zero quote. Accepted tasks enter the pending queue and may
// dispatch immediately. Callers that need the price call Quote.
func (s *Site) Submit(t *task.Task) (bool, error) {
	if err := t.Validate(); err != nil {
		return false, err
	}
	var q admission.Quote
	if s.adm.ReadsQuote() || s.recorder != nil {
		var err error
		if q, err = s.Quote(t); err != nil {
			return false, err
		}
	}
	s.metrics.Submitted++
	now := s.engine.Now()
	if now < s.metrics.FirstArrival {
		s.metrics.FirstArrival = now
	}
	if !s.adm.Admit(q) {
		t.State = task.Rejected
		s.metrics.Rejected++
		s.recordQuote(EventReject, t, q)
		return false, nil
	}
	t.State = task.Queued
	s.metrics.Accepted++
	s.metrics.AcceptedValue += t.Value
	s.pending = append(s.pending, t)
	s.invalidate()
	s.recordQuote(EventSubmit, t, q)
	s.dispatch()
	return true, nil
}

// effectiveRPT is the remaining processing time of a running task as of
// now, accounting for work done since its last dispatch.
func (s *Site) effectiveRPT(ex *execution, now float64) float64 {
	rem := ex.t.RPT - (now - ex.start)
	if rem < 0 {
		rem = 0
	}
	return rem
}

// dispatch fills free processors with the highest-priority pending tasks
// and, when preemption is enabled, displaces running tasks that rank below
// a pending one.
//
// Dispatch is atomic in simulation time: the clock cannot advance between
// the decisions below, so expiry state is fixed for the whole event.
// parkExpired clears already-expired tasks up front, and the start loop
// re-checks expiry on each selected task before starting it — the hoisted
// check makes "an expired task is never started" a structural invariant
// of the dispatcher rather than a consequence of call ordering.
func (s *Site) dispatch() {
	now := s.engine.Now()
	if s.cfg.ParkExpired {
		s.parkExpired(now)
	}
	rankOps := 0
	for s.free > 0 && len(s.pending) > 0 {
		starts, ranks := s.planner.PlanStarts(s.cfg.Policy, now, s.free, s.pending)
		rankOps += ranks
		parked := false
		for _, t := range starts {
			if s.cfg.ParkExpired && !t.Unbounded() && t.ExpiredAt(now) {
				// Unreachable after parkExpired within one atomic dispatch,
				// but kept as the structural guarantee: park, drop the rest
				// of this plan, and re-plan without the expired task.
				s.removePending(t)
				s.park(t, now)
				s.invalidate()
				parked = true
				break
			}
			s.start(t, now)
		}
		if !parked {
			break
		}
	}
	if s.cfg.Preemptive {
		rankOps += s.preemptIfBeneficial(now)
	}
	if rankOps > 0 {
		s.metrics.RankOps += rankOps
		s.recordEvent(EventRank, 0, float64(rankOps))
	}
}

// parkExpired moves expired bounded-penalty tasks out of the pending queue,
// realizing their full penalty now.
func (s *Site) parkExpired(now float64) {
	keep := s.pending[:0]
	changed := false
	for _, t := range s.pending {
		if !t.Unbounded() && t.ExpiredAt(now) {
			s.park(t, now)
			changed = true
			continue
		}
		keep = append(keep, t)
	}
	s.pending = keep
	if changed {
		s.invalidate()
	}
}

// park realizes t's full penalty and records the outcome. The caller is
// responsible for having removed t from the pending queue.
func (s *Site) park(t *task.Task, now float64) {
	t.State = task.Completed
	t.Completion = now
	t.Yield = -t.Bound
	s.record(EventPark, t, t.Yield)
	s.recordOutcome(t, now)
}

// preemptEpsilon guards against priority-tie thrashing: a pending task must
// beat a running task by a strict margin to displace it.
const preemptEpsilon = 1e-9

// minPreemptableRPT avoids preempting a task at the instant it completes;
// such a task's completion event fires at the same timestamp.
const minPreemptableRPT = 1e-9

// preemptIfBeneficial repeatedly swaps the best pending task for the worst
// running task while the pending one ranks strictly higher. Rankings are
// evaluated over the union of pending and running tasks so cross-task cost
// terms see the full competing set. It reports the number of ranking
// passes performed.
func (s *Site) preemptIfBeneficial(now float64) (rankOps int) {
	for len(s.pending) > 0 && len(s.running) > 0 {
		// union[:np] is the pending queue; union[np+j] is running task j.
		np := len(s.pending)
		union := append(s.union[:0], s.pending...)
		exs, saved, preemptable := s.unionEx[:0], s.savedRPT[:0], s.preemptable[:0]
		// Snapshot each running task's stored RPT, then install the ranking
		// basis (remaining work, or full restart cost) for the priority
		// computation; the snapshots are restored before any action.
		for _, ex := range s.running {
			eff := s.effectiveRPT(ex, now)
			exs = append(exs, ex)
			saved = append(saved, ex.t.RPT)
			preemptable = append(preemptable, eff > minPreemptableRPT)
			if s.cfg.PreemptRanking == RestartCost {
				ex.t.RPT = ex.t.Runtime
			} else {
				ex.t.RPT = eff
			}
			union = append(union, ex.t)
		}
		prios := s.cfg.Policy.Priorities(s.prios, now, union)
		s.union, s.prios, s.unionEx, s.savedRPT, s.preemptable = union, prios, exs, saved, preemptable
		rankOps++

		bestPending, worstRunning := -1, -1
		for i, t := range union {
			if i < np {
				if bestPending < 0 || prios[i] > prios[bestPending] ||
					(prios[i] == prios[bestPending] && t.ID < union[bestPending].ID) {
					bestPending = i
				}
			} else if preemptable[i-np] {
				if worstRunning < 0 || prios[i] < prios[worstRunning] ||
					(prios[i] == prios[worstRunning] && t.ID > union[worstRunning].ID) {
					worstRunning = i
				}
			}
		}

		doSwap := bestPending >= 0 && worstRunning >= 0 &&
			prios[bestPending] > prios[worstRunning]+preemptEpsilon
		// Restore the true stored RPTs before acting; preempt() derives the
		// victim's post-preemption RPT from its execution record.
		for j, ex := range exs {
			ex.t.RPT = saved[j]
		}
		if !doSwap {
			return rankOps
		}
		s.preempt(union[worstRunning], now)
		s.start(union[bestPending], now)
	}
	return rankOps
}

// start dispatches a pending task onto a free processor.
func (s *Site) start(t *task.Task, now float64) {
	s.removePending(t)
	t.State = task.Running
	t.Start = now
	ex := &execution{t: t, start: now}
	ex.done = s.engine.After(t.RPT, func() { s.complete(t) })
	s.running[t.ID] = ex
	s.free--
	s.invalidate()
	s.record(EventStart, t, t.RPT)
}

// preempt suspends a running task, returning it to the pending queue with
// its remaining processing time — or, with PreemptionRestart, discarding
// its progress so it must run from scratch.
func (s *Site) preempt(t *task.Task, now float64) {
	ex := s.running[t.ID]
	ex.done.Cancel()
	delete(s.running, t.ID)
	s.free++
	t.State = task.Queued
	t.Preemptions++
	s.metrics.Preemptions++
	if s.cfg.PreemptionRestart {
		t.RPT = t.Runtime
	} else {
		t.RPT = s.effectiveRPT(ex, now)
	}
	s.pending = append(s.pending, t)
	s.invalidate()
	s.record(EventPreempt, t, t.RPT)
}

// complete realizes a task's yield at the current time and refills the
// freed processor.
func (s *Site) complete(t *task.Task) {
	now := s.engine.Now()
	delete(s.running, t.ID)
	s.free++
	s.invalidate()
	t.State = task.Completed
	t.RPT = 0
	t.Completion = now
	t.Yield = t.YieldAtCompletion(now)
	s.record(EventComplete, t, t.Yield)
	s.recordOutcome(t, now)
	s.dispatch()
}

func (s *Site) recordOutcome(t *task.Task, now float64) {
	s.metrics.Completed++
	s.metrics.TotalYield += t.Yield
	s.metrics.TotalDelay += t.Delay(now)
	if now > s.metrics.LastCompletion {
		s.metrics.LastCompletion = now
	}
	if t.Class == task.HighValue {
		s.metrics.HighClassYield += t.Yield
	} else {
		s.metrics.LowClassYield += t.Yield
	}
	s.metrics.CompletedTasks = append(s.metrics.CompletedTasks, t)
	for _, fn := range s.onComplete {
		fn(t)
	}
}

func (s *Site) removePending(t *task.Task) {
	for i, p := range s.pending {
		if p == t {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("site: task %d not in pending queue", t.ID))
}

// GrowCapacity adds n processors to the site, immediately dispatching
// queued work onto them. It supports providers that lease capacity from a
// resource market mid-run.
func (s *Site) GrowCapacity(n int) {
	if n <= 0 {
		return
	}
	s.procs += n
	s.free += n
	s.invalidate()
	s.dispatch()
}

// ShrinkCapacity removes up to n idle processors and reports how many were
// removed. Busy processors are never revoked: a provider that wants to
// shed more capacity retries as tasks complete.
func (s *Site) ShrinkCapacity(n int) int {
	if n <= 0 {
		return 0
	}
	removed := n
	if removed > s.free {
		removed = s.free
	}
	// Never shrink below one processor; a site with zero capacity would
	// strand accepted work forever.
	if s.procs-removed < 1 {
		removed = s.procs - 1
	}
	if removed < 0 {
		removed = 0
	}
	s.procs -= removed
	s.free -= removed
	if removed > 0 {
		s.invalidate()
	}
	return removed
}

// QueuedWork returns the total remaining processing time of queued (not
// running) tasks — the backlog a capacity-planning provider reasons about.
func (s *Site) QueuedWork() float64 {
	var w float64
	for _, t := range s.pending {
		w += t.RPT
	}
	return w
}

// PendingLen reports the number of queued (not running) tasks.
func (s *Site) PendingLen() int { return len(s.pending) }

// RunningLen reports the number of tasks occupying processors.
func (s *Site) RunningLen() int { return len(s.running) }

// Idle reports whether the site has no queued or running work.
func (s *Site) Idle() bool { return len(s.pending) == 0 && len(s.running) == 0 }

// Metrics returns a snapshot of the site's accumulated metrics.
func (s *Site) Metrics() Metrics { return s.metrics }
