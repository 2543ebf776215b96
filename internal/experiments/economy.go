package experiments

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/site"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// EconomyConfig parameterizes the budgeted-client study: the paper
// envisions each user group holding a per-interval budget (Section 2);
// this experiment measures how budget size throttles placement and spend
// under the paper's default (full) and Vickrey-style (second) pricing.
type EconomyConfig struct {
	// BudgetScales are multiples of the workload's mean task value granted
	// per budget interval.
	BudgetScales []float64
	// IntervalRuntimes is the budget interval in mean runtimes.
	IntervalRuntimes float64
	Pricer           market.Pricer
	Spec             workload.Spec
	Options          Options
}

// DefaultEconomy grants budgets from starvation to abundance.
func DefaultEconomy() EconomyConfig {
	spec := workload.Default()
	spec.ValueSkew = 3
	spec.DecaySkew = 5
	return EconomyConfig{
		// At load 1 a budget interval sees demand worth roughly
		// Processors * IntervalRuntimes mean task values (160 here), so the
		// scales sweep from deep scarcity to abundance.
		BudgetScales:     []float64{5, 20, 50, 100, 200, 400},
		IntervalRuntimes: 10,
		Pricer:           market.FullPrice{},
		Spec:             spec,
	}
}

// RunEconomy produces three series against budget scale: the fraction of
// tasks placed, the fraction withheld as unaffordable, and the client's
// spend per interval normalized by its budget.
func RunEconomy(cfg EconomyConfig) *Figure {
	opts := cfg.Options.withDefaults()
	pricer := cfg.Pricer
	if pricer == nil {
		pricer = market.FullPrice{}
	}
	fig := &Figure{
		ID:     "ext-economy",
		Title:  "Budgeted clients: placement vs per-interval budget",
		XLabel: "budget (mean task values per interval)",
		YLabel: "fraction",
		Notes: []string{
			fmt.Sprintf("pricing: %s; budget interval %g mean runtimes", pricer.Name(), cfg.IntervalRuntimes),
			fmt.Sprintf("jobs=%d seeds=%d", opts.Jobs, opts.Seeds),
		},
	}

	placed := stats.Series{Name: "placed"}
	unaffordable := stats.Series{Name: "unaffordable"}
	spendRatio := stats.Series{Name: "budget utilization"}

	for _, scale := range cfg.BudgetScales {
		type out struct{ placed, unaffordable, utilization float64 }
		results := sweep.Replicate(opts.BaseSeed, opts.Seeds, opts.Workers, func(seed int64) out {
			spec := cfg.Spec
			spec.Jobs = opts.Jobs
			spec.Seed = seed
			tr, err := workload.Generate(spec)
			if err != nil {
				panic(err)
			}
			meanValue := spec.MeanValueRate * spec.MeanRuntime
			interval := cfg.IntervalRuntimes * spec.MeanRuntime
			budget := scale * meanValue

			ex := market.NewExchange(market.BestYield{}, []site.Config{{
				Processors:   spec.Processors,
				Policy:       core.FirstReward{Alpha: 0.2, DiscountRate: 0.01},
				Admission:    admission.AcceptAll{},
				DiscountRate: 0.01,
			}})
			ex.Pricer = pricer
			client := market.NewClient(ex, market.ClientConfig{
				Name: "group", Budget: budget, Interval: interval,
			})
			client.ScheduleArrivals(tr.Clone())
			ex.Run()

			n := float64(client.Submitted)
			_, last := tr.Span()
			// The client's budget refreshes by interval index from t=0.
			intervals := float64(int(last/interval)) + 1
			return out{
				placed:       float64(client.Placed) / n,
				unaffordable: float64(client.Unaffordable) / n,
				utilization:  client.SpentTotal / (budget * intervals),
			}
		})
		var ps, us, ss []float64
		for _, r := range results {
			ps = append(ps, r.placed)
			us = append(us, r.unaffordable)
			ss = append(ss, r.utilization)
		}
		placed.Points = append(placed.Points, meanPoint(scale, ps))
		unaffordable.Points = append(unaffordable.Points, meanPoint(scale, us))
		spendRatio.Points = append(spendRatio.Points, meanPoint(scale, ss))
	}
	fig.Series = []stats.Series{placed, unaffordable, spendRatio}
	return fig
}
