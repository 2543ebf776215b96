//go:build !race

package site

// raceEnabled reports whether the race detector instruments this build.
// Allocation guards skip under it: instrumentation adds bookkeeping
// allocations that say nothing about the engine's own.
const raceEnabled = false
