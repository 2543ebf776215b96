package core

import (
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/task"
)

// Slot is one entry in a candidate schedule: a task with its expected start
// and completion time if the schedule runs without further arrivals or
// preemptions.
type Slot struct {
	Task       *task.Task
	Start      float64
	Completion float64
}

// ExpectedYield evaluates the slot's value function at its expected
// completion time.
func (s Slot) ExpectedYield() float64 {
	return s.Task.YieldAtCompletion(s.Completion)
}

// Candidate is a site's candidate schedule (Section 6): the priority order
// its pending tasks would run in, with expected start and completion times
// from list-scheduling that order onto the site's processors behind the
// currently running work.
//
// The ranking is computed when the candidate is built; the list-scheduled
// slots are computed on first read (Slots, Slot, Behind, Makespan,
// TotalExpectedYield), at most once and safely under concurrent readers.
// An insertion quote — WithTask plus admission.EvaluateInsertion — reads
// only the ranking, so it never list-schedules the base.
type Candidate struct {
	Now float64

	policy Policy
	procs  int
	busy   []float64    // copy of the busyUntil passed to BuildCandidate
	tasks  []*task.Task // pending tasks in rank order
	prios  []float64    // priority per ranked task, aligned with tasks

	once  sync.Once
	slots []Slot // tasks list-scheduled in rank order; set by once
	index map[task.ID]int
}

// BuildCandidate constructs a candidate schedule. busyUntil holds one entry
// per processor occupied by a running task — the time that processor frees
// up; processors beyond len(busyUntil) (up to procs) are idle now. pending
// is ranked by the policy and list-scheduled greedily: each task in
// priority order claims the earliest-free processor.
func BuildCandidate(policy Policy, now float64, procs int, busyUntil []float64, pending []*task.Task) *Candidate {
	ordered, prios := rankWithPriorities(policy, now, pending)
	return &Candidate{
		Now:    now,
		policy: policy,
		procs:  procs,
		busy:   append([]float64(nil), busyUntil...),
		tasks:  ordered,
		prios:  prios,
	}
}

// Ranked returns the candidate's tasks in rank order — the order Slots
// lists them in — without list-scheduling them. The slice must not be
// modified.
func (c *Candidate) Ranked() []*task.Task { return c.tasks }

// Slots returns the candidate schedule in expected start order,
// list-scheduling it on the first call. The slice must not be modified.
func (c *Candidate) Slots() []Slot {
	c.materialise()
	return c.slots
}

// materialise list-schedules the ranked tasks and indexes the slots by task
// ID, once.
func (c *Candidate) materialise() {
	c.once.Do(func() {
		c.slots = listSchedule(c.Now, c.procs, c.busy, c.tasks)
		c.index = make(map[task.ID]int, len(c.slots))
		for i, s := range c.slots {
			c.index[s.Task.ID] = i
		}
	})
}

// Insertion is the result of evaluating one extra task against a base
// candidate schedule: the slot it would occupy and the rank position it
// would take, with every base task at Pos and later shifted one place
// behind it.
type Insertion struct {
	Slot Slot
	Pos  int // index into the base ranking the task would be inserted at
}

// WithTask evaluates where task t would land if inserted into this
// candidate schedule, without rebuilding it. It requires the candidate's
// policy to implement Inserter and the policy to produce an insertion key
// for this task set (see Inserter); otherwise ok is false and the caller
// should fall back to BuildCandidate over the extended set.
//
// The returned slot is identical to the one a full rebuild would assign:
// the rank position comes from a binary search of the insertion key
// against the base priorities, and the start time replays list-scheduling
// of the first Pos ranked tasks onto the processors. Cost is O(log n) for
// the search plus O(Pos) for the replay; the base's own slots are never
// computed.
func (c *Candidate) WithTask(t *task.Task) (Insertion, bool) {
	ins, ok := c.policy.(Inserter)
	if !ok {
		return Insertion{}, false
	}
	key, ok := ins.InsertKey(c.Now, t, c.tasks)
	if !ok {
		return Insertion{}, false
	}

	// First task t would outrank: priorities are non-increasing with
	// ascending-ID ties, so the predicate is monotone and sort.Search
	// applies. RankOrder's comparator is (priority desc, ID asc); t goes
	// before task i exactly when it wins that comparison.
	pos := sort.Search(len(c.tasks), func(i int) bool {
		if key != c.prios[i] {
			return key > c.prios[i]
		}
		return t.ID < c.tasks[i].ID
	})

	// Replay list-scheduling of the tasks ahead of t to find the
	// earliest-free processor at its turn.
	free := newFreeTimes(c.Now, c.procs, c.busy)
	for _, b := range c.tasks[:pos] {
		free.claim(b.RPT)
	}
	at := free.claim(t.RPT)
	return Insertion{Slot: Slot{Task: t, Start: at, Completion: at + t.RPT}, Pos: pos}, true
}

// listSchedule assigns each task of an explicit dispatch order, in turn, to
// the earliest-free processor.
func listSchedule(now float64, procs int, busyUntil []float64, ordered []*task.Task) []Slot {
	free := newFreeTimes(now, procs, busyUntil)
	slots := make([]Slot, len(ordered))
	for i, t := range ordered {
		at := free.claim(t.RPT)
		slots[i] = Slot{Task: t, Start: at, Completion: at + t.RPT}
	}
	return slots
}

// freeTimes is a binary min-heap of processor release times. List
// scheduling reads only the values it pops, never which processor held
// them, so any heap over the same multiset yields the same start times.
type freeTimes []float64

// newFreeTimes holds one release time per busy processor, clamped to now,
// and now for each idle one; procs below 1 counts as 1.
func newFreeTimes(now float64, procs int, busyUntil []float64) freeTimes {
	if procs < 1 {
		procs = 1
	}
	h := make(freeTimes, 0, max(procs, len(busyUntil)))
	for _, b := range busyUntil {
		h = append(h, math.Max(b, now))
	}
	for i := len(busyUntil); i < procs; i++ {
		h = append(h, now)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// claim takes the earliest-free processor for a task of length rpt and
// returns the task's start time; the processor frees again at start+rpt.
func (h freeTimes) claim(rpt float64) float64 {
	at := h[0]
	h[0] = at + rpt
	h.down(0)
	return at
}

func (h freeTimes) down(i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && h[l] < h[least] {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h[r] < h[least] {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// RankOrder returns the pending tasks sorted by the policy's priorities,
// highest first. Ties break by task ID so candidate schedules are
// deterministic.
func RankOrder(policy Policy, now float64, pending []*task.Task) []*task.Task {
	ordered, _ := rankWithPriorities(policy, now, pending)
	return ordered
}

// rankedTask pairs a task with its priority for sorting.
type rankedTask struct {
	prio float64
	t    *task.Task
}

// compareRank orders by priority descending, then task ID ascending. It is
// negative exactly when a ranks strictly ahead of b, so a stable sort under
// it places tasks as a stable sort under the equivalent less-than would.
func compareRank(a, b rankedTask) int {
	if a.prio != b.prio {
		if a.prio > b.prio {
			return -1
		}
		return 1
	}
	switch {
	case a.t.ID < b.t.ID:
		return -1
	case a.t.ID > b.t.ID:
		return 1
	}
	return 0
}

// rankWithPriorities is RankOrder returning the sorted priorities
// alongside the sorted tasks (prios[i] is ordered[i]'s priority).
func rankWithPriorities(policy Policy, now float64, pending []*task.Task) ([]*task.Task, []float64) {
	prios := policy.Priorities(now, pending)
	return sortRanked(prios, pending), prios
}

// sortRanked stably sorts pending under compareRank given its priorities
// (aligned with pending), and sorts prios in place alongside.
func sortRanked(prios []float64, pending []*task.Task) []*task.Task {
	pairs := make([]rankedTask, len(pending))
	for i, t := range pending {
		pairs[i] = rankedTask{prios[i], t}
	}
	slices.SortStableFunc(pairs, compareRank)
	out := make([]*task.Task, len(pending))
	for i, p := range pairs {
		out[i] = p.t
		prios[i] = p.prio
	}
	return out
}

// Slot returns the slot for a task, if present.
func (c *Candidate) Slot(id task.ID) (Slot, bool) {
	c.materialise()
	i, ok := c.index[id]
	if !ok {
		return Slot{}, false
	}
	return c.slots[i], true
}

// Behind returns the tasks scheduled after the given task in the candidate
// schedule — the tasks that accepting it would delay (Equation 8's
// summation set).
func (c *Candidate) Behind(id task.ID) []*task.Task {
	c.materialise()
	i, ok := c.index[id]
	if !ok {
		return nil
	}
	out := make([]*task.Task, 0, len(c.slots)-i-1)
	for _, s := range c.slots[i+1:] {
		out = append(out, s.Task)
	}
	return out
}

// TotalExpectedYield sums the expected yields across the schedule. It is
// the planner's estimate of the value the current mix will earn absent
// further arrivals.
func (c *Candidate) TotalExpectedYield() float64 {
	var sum float64
	for _, s := range c.Slots() {
		sum += s.ExpectedYield()
	}
	return sum
}

// Makespan returns the latest expected completion in the schedule, or Now
// if it is empty.
func (c *Candidate) Makespan() float64 {
	m := c.Now
	for _, s := range c.Slots() {
		if s.Completion > m {
			m = s.Completion
		}
	}
	return m
}
