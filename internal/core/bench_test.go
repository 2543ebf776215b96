package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/task"
)

func benchTasks(n int, bounded bool) []*task.Task {
	rng := rand.New(rand.NewSource(7))
	out := make([]*task.Task, n)
	for i := range out {
		bound := math.Inf(1)
		if bounded {
			bound = 0
		}
		tk := task.New(task.ID(i+1), rng.Float64()*1000, 1+rng.Float64()*200,
			rng.Float64()*400, rng.Float64()*2, bound)
		out[i] = tk
	}
	return out
}

func benchPolicy(b *testing.B, p Policy, n int, bounded bool) {
	tasks := benchTasks(n, bounded)
	var dst []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = p.Priorities(dst, 1000, tasks)
	}
	b.ReportMetric(float64(n), "tasks")
}

func BenchmarkPrioritiesFirstPrice(b *testing.B) { benchPolicy(b, FirstPrice{}, 512, false) }
func BenchmarkPrioritiesPV(b *testing.B) {
	benchPolicy(b, PresentValue{DiscountRate: 0.01}, 512, false)
}
func BenchmarkPrioritiesFirstRewardUnbounded(b *testing.B) {
	benchPolicy(b, FirstReward{Alpha: 0.3, DiscountRate: 0.01}, 512, false)
}
func BenchmarkPrioritiesFirstRewardBounded(b *testing.B) {
	benchPolicy(b, FirstReward{Alpha: 0.3, DiscountRate: 0.01}, 512, true)
}
func BenchmarkPrioritiesScheduledPrice(b *testing.B) {
	benchPolicy(b, ScheduledPrice{Processors: 16}, 512, true)
}

func BenchmarkRankOrder(b *testing.B) {
	tasks := benchTasks(512, false)
	p := FirstReward{Alpha: 0.3, DiscountRate: 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RankOrder(p, 1000, tasks)
	}
}

func BenchmarkBuildCandidate(b *testing.B) {
	tasks := benchTasks(512, false)
	busy := []float64{1010, 1050, 1100, 1200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildCandidate(SWPT{}, 1000, 16, busy, tasks)
	}
}

// The size trajectory below spans n in {100, 1k, 10k} so scaling behavior
// (not just a point estimate) shows up in benchstat.
var benchSizes = []int{100, 1000, 10000}

func BenchmarkPlanStarts(b *testing.B) {
	for _, tc := range []struct {
		name   string
		policy Policy
		maxN   int
	}{
		{"FirstPrice", FirstPrice{}, 10000},
		{"FirstReward", FirstReward{Alpha: 0.3, DiscountRate: 0.01}, 10000},
		// The general-cost reference re-ranks per start through Eq. 4, so it
		// costs O(free·n²): at n=10k one iteration takes minutes.
		{"FirstRewardGeneral", generalFirstReward{Alpha: 0.3, DiscountRate: 0.01}, 1000},
	} {
		for _, n := range benchSizes {
			if n > tc.maxN {
				continue
			}
			b.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(b *testing.B) {
				pending := planTasks(n, false, 9)
				free := n / 4
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					PlanStarts(tc.policy, 1000, free, pending)
				}
			})
		}
	}
}

func BenchmarkWithTask(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pending := planTasks(n, false, 13)
			probe := planTasks(1, false, 14)[0]
			probe.ID = task.ID(n + 1)
			base := BuildCandidate(FirstPrice{}, 60, 8, nil, pending)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := base.WithTask(probe); !ok {
					b.Fatal("WithTask unsupported")
				}
			}
		})
	}
}

func BenchmarkOpportunityCosts(b *testing.B) {
	for _, general := range []bool{false, true} {
		mode := "sorted"
		if general {
			mode = "general"
		}
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
				tasks := planTasks(n, true, 17)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					OpportunityCosts(1000, tasks, general)
				}
			})
		}
	}
}
