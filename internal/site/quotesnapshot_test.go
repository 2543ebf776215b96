package site

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/workload"
)

// quotesEqual demands bitwise equality: the quote path must reproduce the
// reference's floats exactly, not approximately.
func quotesEqual(a, b admission.Quote) bool {
	eq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	return a.TaskID == b.TaskID && eq(a.Now, b.Now) &&
		eq(a.ExpectedStart, b.ExpectedStart) &&
		eq(a.ExpectedCompletion, b.ExpectedCompletion) &&
		eq(a.ExpectedYield, b.ExpectedYield) &&
		eq(a.PresentValue, b.PresentValue) &&
		eq(a.Cost, b.Cost) && eq(a.Slack, b.Slack)
}

// rebuildQuote is the reference the quote path is held to: a full rebuild
// of the candidate schedule of pending+probe — core.RankOrder, then
// list-scheduling by a linear scan for the earliest-free processor — with
// Equations 7 and 8 written out. It shares no code with QuoteSnapshot.Quote
// beyond the policy's priorities and the task's value function.
func rebuildQuote(s *Site, now float64, probe *task.Task) admission.Quote {
	var free []float64
	for _, ex := range s.running {
		rem := ex.t.RPT - (now - ex.start)
		if rem < 0 {
			rem = 0
		}
		free = append(free, now+rem)
	}
	for len(free) < s.procs {
		free = append(free, now)
	}
	ranked := core.RankOrder(s.cfg.Policy, now, append(append([]*task.Task(nil), s.pending...), probe))
	var start, cost float64
	placed := false
	for _, t := range ranked {
		if placed {
			cost += t.Decay * probe.Runtime // Eq. 8: t waits the probe's runtime longer
			continue
		}
		first := 0
		for i, f := range free {
			if f < free[first] {
				first = i
			}
		}
		start = free[first]
		free[first] = start + t.RPT
		placed = t == probe
	}
	completion := start + probe.RPT
	yield := probe.YieldAtCompletion(completion)
	pv := yield / (1 + s.cfg.DiscountRate*probe.RPT)
	net := pv - cost // Eq. 7
	slack := math.Inf(1)
	switch {
	case probe.Decay > 0:
		slack = net / probe.Decay
	case net < 0:
		slack = math.Inf(-1)
	}
	return admission.Quote{
		TaskID: probe.ID, Now: now,
		ExpectedStart: start, ExpectedCompletion: completion, ExpectedYield: yield,
		PresentValue: pv, Cost: cost, Slack: slack,
	}
}

// TestQuoteSnapshotDifferential holds the one quote path to an independent
// full rebuild, bit for bit, across randomized workloads, policies, and
// capacities, probed at every submission event (when the queue and running
// set are in arbitrary mid-run states). Each event quotes the task, then
// submits it: Submit's accept decision must be the admission policy's
// decision on the rebuilt quote, whether Submit priced the task itself
// (slack admission, reusing the probe's base candidate) or skipped the
// quote (accept-all).
func TestQuoteSnapshotDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	policies := []core.Policy{
		core.FCFS{}, core.SRPT{}, core.SWPT{}, core.FirstPrice{},
		core.PresentValue{DiscountRate: 0.01},
		core.FirstReward{Alpha: 0.3, DiscountRate: 0.01},
		core.FirstReward{Alpha: 0},
	}
	for trial := 0; trial < 40; trial++ {
		spec := workload.Default()
		spec.Jobs = 30 + rng.Intn(80)
		spec.Processors = 1 + rng.Intn(6)
		spec.Load = 0.4 + rng.Float64()*2
		spec.ValueSkew = 1 + rng.Float64()*6
		spec.DecaySkew = 1 + rng.Float64()*4
		spec.Seed = rng.Int63()
		if rng.Intn(2) == 0 {
			spec.Bound = math.Inf(1)
		} else {
			spec.Bound = rng.Float64() * 100
		}
		tr, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Processors:   spec.Processors,
			Policy:       policies[rng.Intn(len(policies))],
			DiscountRate: 0.01,
		}
		if rng.Intn(2) == 0 {
			cfg.Admission = admission.SlackThreshold{Threshold: rng.Float64()*200 - 50}
		}
		adm := cfg.Admission
		if adm == nil {
			adm = admission.AcceptAll{}
		}

		engine := sim.New()
		s := New(engine, "diff-site", cfg)
		compared := 0
		for _, tk := range tr.Clone() {
			tk := tk
			engine.At(tk.Arrival, func() {
				// Probe with a private copy: Submit mutates the task's state.
				probe := *tk
				want := rebuildQuote(s, engine.Now(), &probe)
				got, err := s.Quote(&probe)
				if err != nil {
					t.Fatalf("trial %d task %d: %v", trial, tk.ID, err)
				}
				if !quotesEqual(got, want) {
					t.Fatalf("trial %d task %d (%s): quote %v != rebuild %v", trial, tk.ID, cfg.Policy.Name(), got, want)
				}
				accepted, err := s.Submit(tk)
				if err != nil {
					t.Fatalf("trial %d task %d: %v", trial, tk.ID, err)
				}
				if accepted != adm.Admit(want) {
					t.Fatalf("trial %d task %d (%s): Submit accepted=%v, admission over the rebuild says %v",
						trial, tk.ID, adm.Name(), accepted, adm.Admit(want))
				}
				compared++
			})
		}
		engine.Run()
		if compared == 0 {
			t.Fatalf("trial %d compared no quotes", trial)
		}
	}
}

// TestSnapshotConcurrentQuotes: quoters racing on one snapshot at one
// instant share its cached base candidate, whichever of them builds it, and
// each answers exactly what a lone quote answers (run under -race).
func TestSnapshotConcurrentQuotes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pending := make([]*task.Task, 200)
	for i := range pending {
		pending[i] = task.New(task.ID(i+1), rng.Float64()*10, 1+rng.Float64()*50,
			1+rng.Float64()*200, rng.Float64(), math.Inf(1))
	}
	snapshot := func() *QuoteSnapshot {
		return &QuoteSnapshot{Procs: 8, Policy: core.FirstPrice{}, DiscountRate: 0.01,
			Pending: pending, Running: []RunningSlot{{Start: 0, Runtime: 30}, {Start: 5, Runtime: 12}}}
	}
	probe := task.New(1000, 10, 20, 150, 0.5, math.Inf(1))
	want, err := snapshot().Quote(10, probe)
	if err != nil {
		t.Fatal(err)
	}

	shared := snapshot()
	got := make([]admission.Quote, 8)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := *probe
			got[g], errs[g] = shared.Quote(10, &p)
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil || !quotesEqual(got[g], want) {
			t.Fatalf("quoter %d: %v, %v; lone quote %v", g, got[g], errs[g], want)
		}
	}
	if base := shared.base.Load(); base == nil || base.Now != 10 {
		t.Fatal("the snapshot cached no base candidate for the shared instant")
	}
}
