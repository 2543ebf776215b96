package market

import (
	"math"
	"testing"

	"repro/internal/admission"
	"repro/internal/task"
	"repro/internal/workload"
)

// TestCompetingClientsConservation runs three budgeted clients against a
// shared exchange and checks the money and task conservation laws that
// must hold regardless of who wins what: every placement is charged at
// most its negotiated price, spend never exceeds granted budget, and the
// sites' settled contracts exactly cover the placements.
func TestCompetingClientsConservation(t *testing.T) {
	spec := workload.Default()
	spec.Jobs = 300
	spec.Processors = 8
	spec.Load = 1.5
	spec.ValueSkew = 3
	spec.Seed = 13
	tr, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}

	ex := NewExchange(BestYield{}, exchangeConfigs(2, admission.SlackThreshold{Threshold: 0}))
	const interval = 2000.0
	budgets := []float64{2000, 6000, 1e12}
	clients := make([]*Client, len(budgets))
	for i, b := range budgets {
		clients[i] = NewClient(ex, ClientConfig{
			Name: "g", Budget: b, Interval: interval,
		})
	}
	// Deal tasks round-robin to the clients.
	all := tr.Clone()
	for i, tk := range all {
		c := clients[i%len(clients)]
		ex.Engine.At(tk.Arrival, func() { c.SubmitTask(tk) })
	}
	ex.Run()

	totalPlaced, totalSubmitted := 0, 0
	for i, c := range clients {
		totalPlaced += c.Placed
		totalSubmitted += c.Submitted
		if c.Placed+c.Declined+c.Unaffordable != c.Submitted {
			t.Fatalf("client %d accounting: %d+%d+%d != %d", i, c.Placed, c.Declined, c.Unaffordable, c.Submitted)
		}
		for _, contract := range c.Contracts {
			if contract.ran.State != task.Completed {
				t.Fatalf("client %d holds an unsettled contract after drain", i)
			}
			if contract.ChargedPrice() > contract.NegotiatedPrice+1e-9 {
				t.Fatalf("charged %v above negotiated %v", contract.ChargedPrice(), contract.NegotiatedPrice)
			}
		}
	}
	if totalSubmitted != len(all) {
		t.Fatalf("submitted %d of %d", totalSubmitted, len(all))
	}
	// The starved client must place less than the rich one.
	if clients[0].Placed >= clients[2].Placed {
		t.Errorf("budget 2000 placed %d, budget inf placed %d; starvation should bind",
			clients[0].Placed, clients[2].Placed)
	}

	settled := 0
	for _, s := range ex.Sites {
		settled += s.Metrics().Completed
	}
	if settled != totalPlaced {
		t.Fatalf("sites settled %d contracts for %d placements", settled, totalPlaced)
	}
}

func TestClientSubmitErrorPropagates(t *testing.T) {
	ex := NewExchange(BestYield{}, exchangeConfigs(1, admission.AcceptAll{}))
	c := NewClient(ex, ClientConfig{Name: "u", Budget: 1e9})
	bad := task.New(1, 0, -5, 100, 1, math.Inf(1)) // invalid runtime
	ex.Engine.At(0, func() {
		// Invalid tasks produce no offers: every site errors on the quote,
		// so the negotiation ends declined rather than failing the client.
		if contract := c.SubmitTask(bad); contract != nil {
			t.Errorf("SubmitTask(bad) = %v; want declined", contract)
		}
	})
	ex.Run()
	if c.Declined != 1 {
		t.Errorf("declined = %d, want 1", c.Declined)
	}
}
