// Package sweep runs independent calls across a bounded set of worker
// goroutines and returns their results in input order, regardless of
// completion order.
//
// Experiment harnesses fan replications and parameter points out over the
// machine's cores, so figure series stay aligned and deterministic; the
// network negotiator and broker fan one bid's quotes out over the sites,
// bounded by their QuoteWorkers.
package sweep

import (
	"runtime"
	"sync"
)

// Map applies f to every param on up to workers goroutines and returns the
// results in input order. workers <= 0 uses GOMAXPROCS. f must be safe for
// concurrent invocation; each call receives a distinct param so per-run
// state (RNGs, engines) should be constructed inside f.
func Map[P, R any](params []P, workers int, f func(P) R) []R {
	n := len(params)
	results := make([]R, n)
	if n == 0 {
		return results
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i, p := range params {
			results[i] = f(p)
		}
		return results
	}

	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = f(params[i])
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// Seeds returns n deterministic seeds derived from base via splitmix64,
// giving replications independent, reproducible random streams.
func Seeds(base int64, n int) []int64 {
	out := make([]int64, n)
	x := uint64(base)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = int64(z >> 1) // keep seeds non-negative
	}
	return out
}

// Replicate runs f once per seed (in parallel) and returns the results in
// seed order.
func Replicate[R any](base int64, n, workers int, f func(seed int64) R) []R {
	return Map(Seeds(base, n), workers, f)
}
