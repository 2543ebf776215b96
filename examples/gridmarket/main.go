// Gridmarket: the Figure 1 economy in-process — a broker negotiates each
// task with three task-service sites of different sizes and admission
// postures, awards it to the best server bid, and contracts settle at
// completion with penalties for late delivery.
package main

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/workload"
)

func main() {
	// Three sites: a large risk-averse site, a mid-size balanced site, and
	// a small site that accepts everything (and pays for it in penalties).
	cfgs := []site.Config{
		{
			Processors:   8,
			Policy:       core.FirstReward{Alpha: 0.2, DiscountRate: 0.01},
			Admission:    admission.SlackThreshold{Threshold: 150},
			DiscountRate: 0.01,
		},
		{
			Processors:   4,
			Policy:       core.FirstReward{Alpha: 0.4, DiscountRate: 0.01},
			Admission:    admission.SlackThreshold{Threshold: 0},
			DiscountRate: 0.01,
		},
		{
			Processors:   2,
			Policy:       core.FirstPrice{},
			Admission:    admission.AcceptAll{},
			DiscountRate: 0.01,
		},
	}
	// Each site books its contracts into its own ledger, the same
	// obs.Ledger the live site server keeps.
	ex := &market.Exchange{Engine: sim.New()}
	ledgers := make([]*obs.Ledger, len(cfgs))
	for i, cfg := range cfgs {
		ledgers[i] = obs.NewLedger(obs.LedgerConfig{})
		ex.Sites = append(ex.Sites, site.New(ex.Engine, fmt.Sprintf("site-%d", i), cfg,
			site.WithRecorder(site.NewLedgerRecorder(ledgers[i]))))
	}

	// An overloaded stream: 600 jobs at 1.6x the combined capacity of the
	// three sites, so admission posture matters.
	spec := workload.Default()
	spec.Jobs = 600
	spec.Processors = 14 // combined capacity, for the load computation
	spec.Load = 1.6
	spec.ValueSkew = 3
	spec.DecaySkew = 5
	spec.Seed = 7
	trace, err := workload.Generate(spec)
	if err != nil {
		panic(err)
	}

	ex.ScheduleArrivals(trace.Clone())
	ex.Run()

	fmt.Printf("broker: %d negotiations, %d placed, %d declined by every site\n\n",
		ex.Negotiated, ex.Placed, ex.Declined)

	for i, s := range ex.Sites {
		m := s.Metrics()
		led := ledgers[i].Snapshot()
		late := 0
		for _, e := range led.Entries {
			if e.Lateness > 0 {
				late++
			}
		}
		fmt.Printf("%s  procs=%d  policy=%s  admission=%s\n",
			s.ID, s.Processors(), s.Config().Policy.Name(), s.Admission().Name())
		fmt.Printf("    awarded %d tasks, completed %d, yield %.0f (rate %.3f)\n",
			m.Accepted, m.Completed, m.TotalYield, m.YieldRate())
		fmt.Printf("    contracts settled %d, revenue %.0f, late %d, penalties %.0f\n\n",
			led.Totals.Settled, led.Totals.RealizedYield, late, led.Totals.Penalty)
	}

	fmt.Println("The risk-averse site earns the highest yield per processor by declining")
	fmt.Println("low-slack work; the accept-all site honors everything and pays penalties.")
}
