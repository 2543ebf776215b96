package core

import (
	"math"
	"slices"
	"sort"

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

// Candidate is a site's candidate schedule (Section 6): the priority order
// its pending tasks would run in on the site's processors, behind the
// currently running work.
//
// A candidate holds only the ranking. A task's slot is found by replaying
// list-scheduling of the tasks ranked ahead of it (Locate, WithTask), so no
// reader ever list-schedules the whole queue. A built candidate is never
// mutated and is safe for concurrent readers.
type Candidate struct {
	Now float64

	policy Policy
	procs  int
	busy   []float64    // copy of the busyUntil passed to BuildCandidate
	tasks  []*task.Task // pending tasks in rank order
	prios  []float64    // priority per ranked task, aligned with tasks
}

// BuildCandidate constructs a candidate schedule. busyUntil holds one entry
// per processor occupied by a running task — the time that processor frees
// up; processors beyond len(busyUntil) (up to procs) are idle now. pending
// is ranked by the policy; each task in priority order would claim the
// earliest-free processor.
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

// Ranked returns the candidate's tasks in rank order — the order they would
// start in. The slice must not be modified.
func (c *Candidate) Ranked() []*task.Task { return c.tasks }

// Locate finds the candidate's task with the given ID (the last in rank
// order if IDs repeat) and returns its rank position and the slot
// list-scheduling gives it. ok is false when no task has the ID. Cost is
// O(n) for the scan plus the replay of the tasks ahead of it.
func (c *Candidate) Locate(id task.ID) (Insertion, bool) {
	for pos := len(c.tasks) - 1; pos >= 0; pos-- {
		if t := c.tasks[pos]; t.ID == id {
			return Insertion{Slot: c.slotAfter(pos, t), Pos: pos}, true
		}
	}
	return Insertion{}, false
}

// Insertion is the result of evaluating one extra task against a base
// candidate schedule: the slot it would occupy and the rank position it
// would take, with every base task at Pos and later shifted one place
// behind it. Locate reports a task already in the candidate the same way,
// with Pos its own position.
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
// the search plus O(Pos) for the replay.
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

	return Insertion{Slot: c.slotAfter(pos, t), Pos: pos}, true
}

// slotAfter replays list-scheduling of the first pos ranked tasks and
// returns the slot t takes on the earliest-free processor at its turn.
func (c *Candidate) slotAfter(pos int, t *task.Task) Slot {
	free := newFreeTimes(c.Now, c.procs, c.busy)
	for _, b := range c.tasks[:pos] {
		free.claim(b.RPT)
	}
	at := free.claim(t.RPT)
	return Slot{Task: t, Start: at, Completion: at + t.RPT}
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

// rankedIndex pairs a priority with its task's index in the ranked slice.
// It holds no pointer, so sorting pairs moves plain words and triggers no
// write barriers.
type rankedIndex struct {
	prio float64
	i    int
}

// compareRank orders by priority descending, then task ID ascending. It is
// negative exactly when task a at priority pa ranks strictly ahead of task
// b at pb, so a stable sort under it places tasks as a stable sort under
// the equivalent less-than would. Only a tie reads the tasks.
func compareRank(pa float64, a *task.Task, pb float64, b *task.Task) int {
	if pa != pb {
		if pa > pb {
			return -1
		}
		return 1
	}
	switch {
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	}
	return 0
}

// rankWithPriorities is RankOrder returning the sorted priorities
// alongside the sorted tasks (prios[i] is ordered[i]'s priority).
func rankWithPriorities(policy Policy, now float64, pending []*task.Task) ([]*task.Task, []float64) {
	prios := policy.Priorities(nil, now, pending)
	return sortRanked(prios, pending), prios
}

// sortRanked stably sorts pending under compareRank given its priorities
// (aligned with pending), and sorts prios in place alongside.
func sortRanked(prios []float64, pending []*task.Task) []*task.Task {
	pairs := make([]rankedIndex, len(pending))
	for i, p := range prios {
		pairs[i] = rankedIndex{p, i}
	}
	slices.SortStableFunc(pairs, func(a, b rankedIndex) int {
		return compareRank(a.prio, pending[a.i], b.prio, pending[b.i])
	})
	out := make([]*task.Task, len(pending))
	for i, p := range pairs {
		out[i] = pending[p.i]
		prios[i] = p.prio
	}
	return out
}
