package site

import (
	"repro/internal/core"
	"repro/internal/task"
)

// lazyQueue indexes a site's pending tasks when its policy's priorities
// depend on each task alone and never rise while the task waits
// (core.MonotoneRanker). It is a max-heap ordered by (key desc, ID asc),
// where a task's key is its priority when last computed: an upper bound on
// its priority at any later instant. Finding the best task at now
// re-evaluates only the tasks that surface at the top. A refreshed top
// that still ranks at or ahead of the next stale key also ranks ahead of
// every other task's current priority, so it is the exact argmax: lazy
// evaluation, as in Minoux's accelerated greedy. It is the task a full
// ranking of the queue at now puts first, bit for bit, since both compare
// the same floats under the same (priority desc, ID asc) order; task IDs
// are unique within a site.
//
// The heap holds exactly the site's pending tasks; Site.pending keeps them
// in queue order for quoting and accounting.
type lazyQueue struct {
	policy core.Policy
	heap   []lazyEntry
	one    [1]*task.Task // the one-task set a priority is computed over
	prio   []float64
}

type lazyEntry struct {
	t   *task.Task
	key float64 // t's priority at clock reading at
	at  float64
}

// ahead reports whether heap entry i ranks strictly ahead of entry j.
func (q *lazyQueue) ahead(i, j int) bool {
	a, b := &q.heap[i], &q.heap[j]
	return ranksAhead(a.key, a.t.ID, b.key, b.t.ID)
}

// priority is t's priority at now under the queue's policy.
func (q *lazyQueue) priority(now float64, t *task.Task) float64 {
	q.one[0] = t
	q.prio = q.policy.Priorities(q.prio, now, q.one[:])
	return q.prio[0]
}

// push adds a task that has just joined the pending queue, keyed by its
// priority at now.
func (q *lazyQueue) push(now float64, t *task.Task) {
	q.heap = append(q.heap, lazyEntry{t: t, key: q.priority(now, t), at: now})
	for k := len(q.heap) - 1; k > 0; {
		parent := (k - 1) / 2
		if !q.ahead(k, parent) {
			break
		}
		q.heap[k], q.heap[parent] = q.heap[parent], q.heap[k]
		k = parent
	}
}

// best returns the best pending task at now and its priority, leaving it
// at the top of the heap. The queue must not be empty.
func (q *lazyQueue) best(now float64) (*task.Task, float64) {
	for {
		top := &q.heap[0]
		if top.at != now {
			top.key, top.at = q.priority(now, top.t), now
			if q.childAhead(0) {
				q.down(0)
				continue
			}
		}
		return top.t, top.key
	}
}

// pop removes the top of the heap.
func (q *lazyQueue) pop() {
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap[last] = lazyEntry{} // the backing array must not keep a started task alive
	q.heap = q.heap[:last]
	q.down(0)
}

// retainQueued drops every task that has left the queued state (parked)
// and restores the heap order over the rest. Keys are kept: each is still
// an upper bound.
func (q *lazyQueue) retainQueued() {
	keep := q.heap[:0]
	for _, e := range q.heap {
		if e.t.State == task.Queued {
			keep = append(keep, e)
		}
	}
	clear(q.heap[len(keep):])
	q.heap = keep
	for k := len(keep)/2 - 1; k >= 0; k-- {
		q.down(k)
	}
}

// childAhead reports whether either child of k ranks ahead of it.
func (q *lazyQueue) childAhead(k int) bool {
	l := 2*k + 1
	return l < len(q.heap) && q.ahead(l, k) || l+1 < len(q.heap) && q.ahead(l+1, k)
}

// down restores the heap below k: no entry ranks ahead of its parent.
func (q *lazyQueue) down(k int) {
	for {
		first := k
		if l := 2*k + 1; l < len(q.heap) && q.ahead(l, first) {
			first = l
		}
		if r := 2*k + 2; r < len(q.heap) && q.ahead(r, first) {
			first = r
		}
		if first == k {
			return
		}
		q.heap[k], q.heap[first] = q.heap[first], q.heap[k]
		k = first
	}
}
