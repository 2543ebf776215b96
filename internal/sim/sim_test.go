package sim

import (
	"math/rand"
	"sort"
	"testing"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.Run()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired as %v, want schedule order", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := New()
	var at float64
	e.At(42, func() { at = e.Now() })
	e.Run()
	if at != 42 {
		t.Fatalf("Now() inside event = %v, want 42", at)
	}
	if e.Now() != 42 {
		t.Fatalf("Now() after run = %v, want 42", e.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := New()
	var second float64
	e.At(10, func() {
		e.After(5, func() { second = e.Now() })
	})
	e.Run()
	if second != 15 {
		t.Fatalf("After(5) from t=10 fired at %v, want 15", second)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := New()
	fired := false
	h := e.At(1, func() { fired = true })
	h.Cancel()
	if !h.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
	h.Cancel() // double-cancel is a no-op
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelFromInsideEarlierEvent(t *testing.T) {
	e := New()
	fired := false
	h := e.At(2, func() { fired = true })
	e.At(1, func() { h.Cancel() })
	e.Run()
	if fired {
		t.Fatal("event fired despite being canceled by an earlier event")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("After with negative delay did not panic")
			}
		}()
		e.After(-1, func() {})
	})
	e.Run()
}

func TestRunUntilLeavesLaterEventsPending(t *testing.T) {
	e := New()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(2.5) fired %d events, want 2", len(fired))
	}
	if e.Now() != 2.5 {
		t.Fatalf("Now() after RunUntil = %v, want 2.5", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("Run() after RunUntil fired %d total, want 4", len(fired))
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step() on empty agenda = true")
	}
	e.At(1, func() {})
	if !e.Step() {
		t.Fatal("Step() with pending event = false")
	}
	if e.Steps() != 1 {
		t.Fatalf("Steps() = %d, want 1", e.Steps())
	}
}

// TestDeterminism runs the same randomized event cascade twice and requires
// identical firing sequences — the property every experiment in this
// repository relies on.
func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := New()
		rng := rand.New(rand.NewSource(99))
		var trace []float64
		var spawn func()
		count := 0
		spawn = func() {
			trace = append(trace, e.Now())
			count++
			if count < 500 {
				e.After(rng.Float64()*10, spawn)
				if rng.Intn(3) == 0 {
					h := e.After(rng.Float64()*5, spawn)
					if rng.Intn(2) == 0 {
						h.Cancel()
					} else {
						count-- // the extra spawn will increment it
					}
				}
			}
		}
		e.At(0, spawn)
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs fired %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestRandomizedCancellation schedules events at random times on a coarse
// grid (so many share an instant), cancels a random subset — some before
// the run, some from inside earlier events — and cancels others only after
// they fired, then checks that exactly the survivors fire, in time order
// with schedule-order ties.
func TestRandomizedCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		e := New()
		n := 100 + rng.Intn(400)
		times := make([]float64, n)
		handles := make([]*Handle, n)
		var fired []int
		for i := range handles {
			times[i] = float64(rng.Intn(50))
			handles[i] = e.At(times[i], func() { fired = append(fired, i) })
		}
		canceled := make([]bool, n)
		for i, h := range handles {
			switch rng.Intn(4) {
			case 0:
				h.Cancel()
				canceled[i] = true
			case 1:
				if times[i] > 0 {
					// A strictly earlier event withdraws it mid-run.
					e.At(rng.Float64()*times[i], h.Cancel)
					canceled[i] = true
				}
			case 2:
				// A later event cancels it after it fired: a no-op that must
				// not disturb the events still queued.
				e.At(times[i]+1+rng.Float64()*10, h.Cancel)
			}
		}
		e.Run()

		var want []int
		for i := range handles {
			if !canceled[i] {
				want = append(want, i)
			}
		}
		sort.SliceStable(want, func(a, b int) bool { return times[want[a]] < times[want[b]] })
		if len(fired) != len(want) {
			t.Fatalf("trial %d: %d events fired, want %d survivors", trial, len(fired), len(want))
		}
		for k := range want {
			if fired[k] != want[k] {
				t.Fatalf("trial %d: fired[%d] = event %d, want %d", trial, k, fired[k], want[k])
			}
		}
		if e.Pending() != 0 {
			t.Fatalf("trial %d: %d events still pending after Run", trial, e.Pending())
		}
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	e := New()
	rng := rand.New(rand.NewSource(1))
	n := 0
	var tick func()
	tick = func() {
		if n < b.N {
			n++
			e.After(rng.Float64(), tick)
		}
	}
	e.At(0, tick)
	b.ResetTimer()
	e.Run()
}
