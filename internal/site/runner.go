package site

import (
	"repro/internal/sim"
	"repro/internal/task"
)

// RunTrace drives a fresh site with the given tasks: each task is submitted
// at its arrival time and the simulation runs until all accepted work
// completes. The tasks are mutated (they carry scheduling state), so pass
// clones of any trace you intend to reuse.
//
// This is the paper's single-site experimental loop: "the scheduler
// receives a trace of 5000 jobs ... and the experiment runs until the
// system has completed all jobs" (Section 5). Options (WithRecorder,
// WithOnComplete) are forwarded to the site.
func RunTrace(tasks []*task.Task, cfg Config, opts ...Option) Metrics {
	engine := sim.New()
	s := New(engine, "site-0", cfg, opts...)
	ScheduleArrivals(engine, s, tasks)
	engine.Run()
	return s.Metrics()
}

// ScheduleArrivals registers a submission event per task at its arrival
// time on an existing engine/site pair. Callers composing multi-site or
// market simulations use this directly.
func ScheduleArrivals(engine *sim.Engine, s *Site, tasks []*task.Task) {
	for _, t := range tasks {
		t := t
		engine.At(t.Arrival, func() {
			if _, err := s.Submit(t); err != nil {
				panic(err) // trace tasks are validated at generation time
			}
		})
	}
}
