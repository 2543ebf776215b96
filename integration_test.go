package repro

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/task"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestEndToEndSimulatedEconomy drives the complete in-process stack on one
// trace — generation, brokered negotiation across heterogeneous sites,
// value-based scheduling with admission control, contract settlement, and
// outcome analysis — and cross-checks the books between layers.
func TestEndToEndSimulatedEconomy(t *testing.T) {
	spec := workload.Default()
	spec.Jobs = 400
	spec.Processors = 12
	spec.Load = 1.5
	spec.ValueSkew = 3
	spec.DecaySkew = 5
	spec.Seed = 99
	tr, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Each site books its contracts into its own obs.Ledger, as the live
	// site server does.
	ex := &market.Exchange{Engine: sim.New()}
	var ledgers []*obs.Ledger
	for i, cfg := range []site.Config{
		{Processors: 6, Policy: core.FirstReward{Alpha: 0.2, DiscountRate: 0.01},
			Admission: admission.SlackThreshold{Threshold: 100}, DiscountRate: 0.01},
		{Processors: 4, Policy: core.FirstReward{Alpha: 0.4, DiscountRate: 0.01},
			Admission: admission.SlackThreshold{Threshold: 0}, DiscountRate: 0.01},
		{Processors: 2, Policy: core.FirstPrice{}, Admission: admission.AcceptAll{}},
	} {
		led := obs.NewLedger(obs.LedgerConfig{})
		ledgers = append(ledgers, led)
		ex.Sites = append(ex.Sites, site.New(ex.Engine, fmt.Sprintf("site-%d", i), cfg,
			site.WithRecorder(site.NewLedgerRecorder(led))))
	}
	tasks := tr.Clone()
	ex.ScheduleArrivals(tasks)
	ex.Run()

	if ex.Negotiated != len(tasks) {
		t.Fatalf("negotiated %d of %d", ex.Negotiated, len(tasks))
	}
	if ex.Placed+ex.Declined != ex.Negotiated {
		t.Fatalf("broker accounting: %d+%d != %d", ex.Placed, ex.Declined, ex.Negotiated)
	}
	if ex.Placed == 0 {
		t.Fatal("nothing placed")
	}

	// Cross-layer conservation: the sites' yields equal the contracts'
	// settled prices, and every task ended terminal.
	var siteYield, contractRevenue float64
	completed := 0
	for i, s := range ex.Sites {
		m := s.Metrics()
		siteYield += m.TotalYield
		completed += m.Completed
		tot := ledgers[i].Snapshot().Totals
		contractRevenue += tot.RealizedYield
		if tot.Open != 0 {
			t.Fatalf("site %d: %d contracts still open", i, tot.Open)
		}
	}
	if completed != ex.Placed {
		t.Fatalf("completed %d != placed %d", completed, ex.Placed)
	}
	if math.Abs(siteYield-contractRevenue) > 1e-6 {
		t.Fatalf("site yield %v != contract revenue %v", siteYield, contractRevenue)
	}
	for _, tk := range tasks {
		if tk.State != task.Completed && tk.State != task.Rejected {
			t.Fatalf("task %d ended in state %v", tk.ID, tk.State)
		}
	}

	// The analysis layer agrees with the market layer.
	rep := analysis.Analyze(tasks)
	if rep.Completed != completed {
		t.Fatalf("analysis completed %d != market %d", rep.Completed, completed)
	}
	if math.Abs(rep.TotalYield-siteYield) > 1e-6 {
		t.Fatalf("analysis yield %v != site yield %v", rep.TotalYield, siteYield)
	}
}

// TestEndToEndNetworkEconomy drives the same negotiation over real TCP:
// two site servers behind a broker daemon, a client placing a burst of
// tasks, settlements relayed back through the broker.
func TestEndToEndNetworkEconomy(t *testing.T) {
	mk := func(id string, procs int) *wire.Server {
		srv, err := wire.NewServer("127.0.0.1:0", wire.ServerConfig{
			SiteID:       id,
			Processors:   procs,
			Policy:       core.FirstReward{Alpha: 0.3, DiscountRate: 0.01},
			Admission:    admission.SlackThreshold{Threshold: -1e12},
			DiscountRate: 0.01,
			TimeScale:    200 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	s1, s2 := mk("alpha", 3), mk("beta", 1)

	broker, err := wire.NewBrokerServer("127.0.0.1:0", wire.BrokerConfig{
		SiteAddrs: []string{s1.Addr(), s2.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { broker.Close() })

	client, err := wire.Dial(broker.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	settled := make(chan wire.Envelope, 16)
	client.SetOnSettled(func(e wire.Envelope) { settled <- e })

	const n = 10
	for i := 1; i <= n; i++ {
		runtime := float64(5 + i%3*10)
		bid := market.Bid{
			TaskID:  task.ID(i),
			Runtime: runtime,
			Value:   runtime * 8,
			Decay:   1,
			Bound:   math.Inf(1),
		}
		sb, ok, err := client.Propose(bid)
		if err != nil || !ok {
			t.Fatalf("propose %d: %v %v", i, ok, err)
		}
		if _, ok, err := client.Award(bid, sb); err != nil || !ok {
			t.Fatalf("award %d: %v %v", i, ok, err)
		}
	}

	var revenue float64
	for i := 0; i < n; i++ {
		select {
		case e := <-settled:
			revenue += e.FinalPrice
		case <-time.After(10 * time.Second):
			t.Fatalf("settlement %d never arrived", i)
		}
	}
	if broker.Placed != n {
		t.Errorf("broker placed %d, want %d", broker.Placed, n)
	}
	if s1.Completed+s2.Completed != n {
		t.Errorf("sites completed %d, want %d", s1.Completed+s2.Completed, n)
	}
	if revenue <= 0 {
		t.Errorf("revenue = %v, want positive", revenue)
	}
	if s1.Completed == 0 {
		t.Error("the larger site should have won some work")
	}
}
