// Auction: pricing strategies over the negotiation protocol. The paper
// charges the bid-derived price but notes (Section 2) that charging below
// the bid — as in the second-price Vickrey auctions of Spawn — rewards
// truthful bidding. This example runs the same budgeted client population
// under full pricing and second pricing and compares what clients pay,
// how far their budgets stretch, and what the sites earn.
package main

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/site"
	"repro/internal/workload"
)

func run(pricer market.Pricer, strategy market.BidStrategy) (placed, unaffordable int, spent, revenue float64) {
	spec := workload.Default()
	spec.Jobs = 500
	spec.Processors = 8
	spec.ValueSkew = 3
	spec.DecaySkew = 5
	spec.Seed = 31
	trace, err := workload.Generate(spec)
	if err != nil {
		panic(err)
	}

	// Two competing sites so the second price has a real runner-up offer.
	cfgs := []site.Config{
		{Processors: 4, Policy: core.FirstReward{Alpha: 0.2, DiscountRate: 0.01},
			Admission: admission.SlackThreshold{Threshold: 0}, DiscountRate: 0.01},
		{Processors: 4, Policy: core.FirstReward{Alpha: 0.2, DiscountRate: 0.01},
			Admission: admission.SlackThreshold{Threshold: 0}, DiscountRate: 0.01},
	}
	ex := market.NewExchange(market.BestYield{}, cfgs)
	ex.Pricer = pricer

	client := market.NewClient(ex, market.ClientConfig{
		Name:     "lab",
		Budget:   4000, // tight: pricing efficiency decides how far it goes
		Interval: 1000,
		Strategy: strategy,
	})
	client.ScheduleArrivals(trace.Clone())
	ex.Run()

	for _, c := range client.Contracts {
		revenue += c.ChargedPrice()
	}
	return client.Placed, client.Unaffordable, client.SpentTotal, revenue
}

func main() {
	fmt.Println("same workload, same sites, same budget — different pricing:")
	fmt.Println()
	for _, p := range []market.Pricer{market.FullPrice{}, market.SecondPrice{}} {
		placed, unaffordable, spent, revenue := run(p, market.Truthful{})
		fmt.Printf("%-14s placed %3d  unaffordable %3d  committed %8.0f  charged %8.0f\n",
			p.Name(), placed, unaffordable, spent, revenue)
	}

	fmt.Println()
	fmt.Println("and under full pricing, a client that shades its bids to 60%:")
	placed, unaffordable, spent, revenue := run(market.FullPrice{}, market.Shaded{Fraction: 0.6})
	fmt.Printf("%-14s placed %3d  unaffordable %3d  committed %8.0f  charged %8.0f\n",
		"shaded(0.6)", placed, unaffordable, spent, revenue)

	fmt.Println()
	fmt.Println("Second pricing stretches the same budget across more placements by")
	fmt.Println("charging the runner-up offer; shading does the same unilaterally but")
	fmt.Println("surrenders scheduling priority — the incentive tension Vickrey removes.")
}
