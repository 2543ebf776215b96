package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/task"
)

// mk builds a task with the given id, arrival, runtime, value, decay, and
// an unbounded penalty unless bound is supplied.
func mk(id task.ID, arrival, runtime, value, decay float64, bound ...float64) *task.Task {
	b := math.Inf(1)
	if len(bound) > 0 {
		b = bound[0]
	}
	return task.New(id, arrival, runtime, value, decay, b)
}

// orderIDs ranks the tasks under the policy and returns the task IDs in
// dispatch order.
func orderIDs(p Policy, now float64, tasks []*task.Task) []task.ID {
	out := make([]task.ID, 0, len(tasks))
	for _, t := range RankOrder(p, now, tasks) {
		out = append(out, t.ID)
	}
	return out
}

func idsEqual(got, want []task.ID) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestFCFSOrdersByArrival(t *testing.T) {
	tasks := []*task.Task{
		mk(1, 30, 10, 100, 1),
		mk(2, 10, 10, 100, 1),
		mk(3, 20, 10, 100, 1),
	}
	if got := orderIDs(FCFS{}, 50, tasks); !idsEqual(got, []task.ID{2, 3, 1}) {
		t.Errorf("FCFS order = %v, want [2 3 1]", got)
	}
}

func TestSRPTOrdersByRemainingTime(t *testing.T) {
	tasks := []*task.Task{
		mk(1, 0, 30, 100, 1),
		mk(2, 0, 10, 100, 1),
		mk(3, 0, 20, 100, 1),
	}
	tasks[0].RPT = 5 // partially executed long task goes first
	if got := orderIDs(SRPT{}, 0, tasks); !idsEqual(got, []task.ID{1, 2, 3}) {
		t.Errorf("SRPT order = %v, want [1 2 3]", got)
	}
}

func TestSWPTOrdersByDecayPerWork(t *testing.T) {
	tasks := []*task.Task{
		mk(1, 0, 10, 100, 1),   // d/RPT = 0.1
		mk(2, 0, 10, 100, 5),   // 0.5
		mk(3, 0, 100, 100, 20), // 0.2
	}
	if got := orderIDs(SWPT{}, 0, tasks); !idsEqual(got, []task.ID{2, 3, 1}) {
		t.Errorf("SWPT order = %v, want [2 3 1]", got)
	}
}

func TestFirstPriceOrdersByUnitGain(t *testing.T) {
	// Fresh tasks: unit gain = value/runtime.
	tasks := []*task.Task{
		mk(1, 0, 10, 50, 0),   // 5
		mk(2, 0, 10, 90, 0),   // 9
		mk(3, 0, 100, 700, 0), // 7
	}
	if got := orderIDs(FirstPrice{}, 0, tasks); !idsEqual(got, []task.ID{2, 3, 1}) {
		t.Errorf("FirstPrice order = %v, want [2 3 1]", got)
	}
}

func TestFirstPriceAccountsForAccruedDecay(t *testing.T) {
	// Equal value rates, but task 1 has waited and decayed.
	tasks := []*task.Task{
		mk(1, 0, 10, 100, 2),
		mk(2, 100, 10, 100, 2),
	}
	// At now=100: task 1 completing at 110 has delay 100 -> yield -100;
	// task 2 has delay 0 -> yield 100.
	if got := orderIDs(FirstPrice{}, 100, tasks); !idsEqual(got, []task.ID{2, 1}) {
		t.Errorf("FirstPrice order = %v, want [2 1]", got)
	}
}

func TestPVReducesToFirstPriceAtZeroRate(t *testing.T) {
	tasks := []*task.Task{
		mk(1, 0, 10, 50, 1),
		mk(2, 0, 25, 90, 2),
		mk(3, 5, 100, 700, 0.5),
		mk(4, 9, 7, 30, 3),
	}
	fp := orderIDs(FirstPrice{}, 20, tasks)
	pv := orderIDs(PresentValue{DiscountRate: 0}, 20, tasks)
	if !idsEqual(fp, pv) {
		t.Errorf("PV(0) order %v != FirstPrice order %v", pv, fp)
	}
}

func TestPVDiscountPrefersShortTask(t *testing.T) {
	// Same unit gain (value rate 10), different lengths. FirstPrice ties;
	// PV at any positive rate prefers the short task.
	long := mk(1, 0, 100, 1000, 1)
	short := mk(2, 0, 10, 100, 1)
	prios := PresentValue{DiscountRate: 0.01}.Priorities(nil, 0, []*task.Task{long, short})
	if prios[1] <= prios[0] {
		t.Errorf("PV priorities: short %v should exceed long %v", prios[1], prios[0])
	}
}

func TestPVEquation3(t *testing.T) {
	tk := mk(1, 0, 10, 100, 0)
	// PV = yield / (1 + rate*RPT) = 100 / (1 + 0.05*10) = 66.666...
	got := PV(tk, 0, 0.05)
	if math.Abs(got-100.0/1.5) > 1e-12 {
		t.Errorf("PV = %v, want %v", got, 100.0/1.5)
	}
}

func TestFirstRewardAlphaOneRateZeroMatchesFirstPrice(t *testing.T) {
	tasks := []*task.Task{
		mk(1, 0, 10, 50, 1),
		mk(2, 0, 25, 90, 2),
		mk(3, 5, 100, 700, 0.5),
	}
	fp := orderIDs(FirstPrice{}, 30, tasks)
	fr := orderIDs(FirstReward{Alpha: 1, DiscountRate: 0}, 30, tasks)
	if !idsEqual(fp, fr) {
		t.Errorf("FirstReward(1,0) order %v != FirstPrice order %v", fr, fp)
	}
}

func TestFirstRewardAlphaZeroIsCostOnly(t *testing.T) {
	// Unbounded penalties: per Equation 5 the per-unit cost is sum(d)-d_i,
	// so the most urgent task runs first regardless of value.
	tasks := []*task.Task{
		mk(1, 0, 10, 1000, 1),
		mk(2, 0, 10, 10, 9),
		mk(3, 0, 10, 100, 5),
	}
	if got := orderIDs(FirstReward{Alpha: 0}, 0, tasks); !idsEqual(got, []task.ID{2, 3, 1}) {
		t.Errorf("FirstReward(0) order = %v, want [2 3 1]", got)
	}
}

func TestFirstRewardBalancesGainAndCost(t *testing.T) {
	// A worthless urgent task versus a valuable patient one: alpha decides.
	urgentWorthless := mk(1, 0, 10, 1, 9)
	patientValuable := mk(2, 0, 10, 1000, 1)
	tasks := []*task.Task{urgentWorthless, patientValuable}

	costFirst := orderIDs(FirstReward{Alpha: 0}, 0, tasks)
	if costFirst[0] != 1 {
		t.Errorf("alpha=0 should run the urgent task first, got %v", costFirst)
	}
	gainFirst := orderIDs(FirstReward{Alpha: 1}, 0, tasks)
	if gainFirst[0] != 2 {
		t.Errorf("alpha=1 should run the valuable task first, got %v", gainFirst)
	}
}

func TestRankOrderDeterministicTieBreak(t *testing.T) {
	// Identical tasks tie on every policy; order must fall back to ID.
	tasks := []*task.Task{
		mk(3, 0, 10, 100, 1),
		mk(1, 0, 10, 100, 1),
		mk(2, 0, 10, 100, 1),
	}
	for _, p := range []Policy{FCFS{}, SRPT{}, SWPT{}, FirstPrice{}, PresentValue{}, FirstReward{Alpha: 0.5}} {
		if got := orderIDs(p, 0, tasks); !idsEqual(got, []task.ID{1, 2, 3}) {
			t.Errorf("%s tie-break order = %v, want [1 2 3]", p.Name(), got)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []Policy{FCFS{}, SRPT{}, SWPT{}, FirstPrice{},
		PresentValue{DiscountRate: 0.01}, FirstReward{Alpha: 0.3, DiscountRate: 0.01}} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}

func TestEmptyPriorities(t *testing.T) {
	for _, p := range []Policy{FCFS{}, SRPT{}, SWPT{}, FirstPrice{}, PresentValue{}, FirstReward{}} {
		if got := p.Priorities(nil, 0, nil); len(got) != 0 {
			t.Errorf("%s Priorities(nil) = %v, want empty", p.Name(), got)
		}
	}
}

// TestPrioritiesReuseDst holds every policy ParseSpec builds to the
// Priorities buffer contract: a stale, non-empty dst — shorter than, as
// long as, or longer than the task set — gives the nil-dst priorities bit
// for bit, one per task, and a dst with room enough is written in place.
// Both penalty regimes are covered, so FirstReward runs its Eq. 5 and its
// sorted Eq. 4 evaluators.
func TestPrioritiesReuseDst(t *testing.T) {
	specs := []string{"fcfs", "srpt", "swpt", "firstprice", "pv", "firstreward", "fr:alpha=0,rate=0", "scheduledprice:procs=4"}
	for _, spec := range specs {
		p, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, bounded := range []bool{false, true} {
			tasks := planTasks(40, bounded, 9)
			want := p.Priorities(nil, 25, tasks)
			if len(want) != len(tasks) {
				t.Fatalf("%s: %d priorities for %d tasks", spec, len(want), len(tasks))
			}
			for _, n := range []int{3, len(tasks), 100} {
				dst := make([]float64, n)
				for i := range dst {
					dst[i] = float64(-i) - 0.5
				}
				got := p.Priorities(dst, 25, tasks)
				if len(got) != len(tasks) {
					t.Fatalf("%s bounded=%v len(dst)=%d: %d priorities for %d tasks", spec, bounded, n, len(got), len(tasks))
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s bounded=%v len(dst)=%d: priority %d = %v, nil-dst %v", spec, bounded, n, i, got[i], want[i])
					}
				}
				if n >= len(tasks) && &got[0] != &dst[0] {
					t.Errorf("%s bounded=%v len(dst)=%d: priorities not written into dst", spec, bounded, n)
				}
			}
		}
	}
}

// TestMonotoneRankerNonIncreasing holds every policy that declares
// MonotoneRanker to its promise, on which the simulated site's lazy queue
// rests: a queued task's priority never rises over a random increasing
// sequence of clock readings. The sequences run from arrival past expiry,
// so bounded tasks cross into the flat region where Bound 0 yields -0;
// some tasks are part-run (RPT below the run time), some never decay.
// Policies with cross-task terms and PV with a negative rate must not
// declare the capability.
func TestMonotoneRankerNonIncreasing(t *testing.T) {
	declares := map[string]bool{
		"fcfs": true, "srpt": true, "swpt": true, "firstprice": true,
		"pv:rate=0": true, "pv:rate=0.001": true, "pv:rate=0.1": true,
		"pv:rate=-0.5": false, "firstreward": false, "scheduledprice:procs=4": false,
	}
	for spec, want := range declares {
		p, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		mr, ok := p.(MonotoneRanker)
		if got := ok && mr.NonIncreasingWhileQueued(); got != want {
			t.Errorf("%s: declares MonotoneRanker = %v, want %v", spec, got, want)
		}
		if !want {
			continue
		}
		rng := rand.New(rand.NewSource(11))
		negZero := 0
		for trial := 0; trial < 300; trial++ {
			bound := []float64{0, 5 + rng.Float64()*100, math.Inf(1)}[trial%3]
			decay := rng.Float64() * 3
			if trial%7 == 0 {
				decay = 0
			}
			tk := mk(task.ID(trial), rng.Float64()*100, 0.5+rng.Float64()*60, 1+rng.Float64()*300, decay, bound)
			if trial%4 == 0 {
				tk.RPT = tk.Runtime * rng.Float64() // part-run, as a resumed task
				if tk.RPT == 0 {
					tk.RPT = tk.Runtime
				}
			}
			horizon := tk.Runtime + 2*(tk.Value+100)/(decay+0.01)
			nows := make([]float64, 80)
			for i := range nows {
				nows[i] = tk.Arrival + rng.Float64()*horizon
			}
			sort.Float64s(nows)
			prev := math.Inf(1)
			one := []*task.Task{tk}
			for _, now := range nows {
				cur := p.Priorities(nil, now, one)[0]
				if cur > prev {
					t.Fatalf("%s: task %v priority rose from %v to %v at now=%v", spec, tk, prev, cur, now)
				}
				if cur == 0 && math.Signbit(cur) {
					negZero++
				}
				prev = cur
			}
		}
		if (spec == "firstprice" || spec == "pv:rate=0.1") && negZero == 0 {
			t.Errorf("%s: no Bound-0 task reached its -0 flat region", spec)
		}
	}
}
