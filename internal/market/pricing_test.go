package market

import (
	"math"
	"testing"

	"repro/internal/admission"
	"repro/internal/task"
)

func TestFullPrice(t *testing.T) {
	w := ServerBid{SiteID: "a", ExpectedPrice: 80}
	if got := (FullPrice{}).Price(w, []ServerBid{w, {SiteID: "b", ExpectedPrice: 60}}); got != 80 {
		t.Errorf("FullPrice = %v, want 80", got)
	}
}

func TestSecondPrice(t *testing.T) {
	w := ServerBid{SiteID: "a", TaskID: 1, ExpectedPrice: 80}
	offers := []ServerBid{w,
		{SiteID: "b", TaskID: 1, ExpectedPrice: 60},
		{SiteID: "c", TaskID: 1, ExpectedPrice: 40},
	}
	if got := (SecondPrice{}).Price(w, offers); got != 60 {
		t.Errorf("SecondPrice = %v, want 60 (best competitor)", got)
	}
	// Sole offer: pays own price.
	if got := (SecondPrice{}).Price(w, []ServerBid{w}); got != 80 {
		t.Errorf("sole-offer SecondPrice = %v, want 80", got)
	}
	// Competitor above the winner's own price: capped at own price.
	offers[1].ExpectedPrice = 200
	if got := (SecondPrice{}).Price(w, offers); got != 80 {
		t.Errorf("capped SecondPrice = %v, want 80", got)
	}
}

func TestRebate(t *testing.T) {
	w := ServerBid{ExpectedPrice: 100}
	if got := (Rebate{Fraction: 0.9}).Price(w, nil); got != 90 {
		t.Errorf("Rebate(0.9) = %v, want 90", got)
	}
	if got := (Rebate{Fraction: 0}).Price(w, nil); got != 100 {
		t.Errorf("Rebate(0) should fall back to full price, got %v", got)
	}
}

func TestPricerNames(t *testing.T) {
	for _, p := range []Pricer{FullPrice{}, SecondPrice{}, Rebate{Fraction: 0.5}} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}

func TestChargedPrice(t *testing.T) {
	ran := task.New(1, 0, 10, 100, 1, math.Inf(1))
	c := Contract{NegotiatedPrice: 60, ran: ran}
	if c.ChargedPrice() != 0 {
		t.Error("unsettled contract should charge 0")
	}
	ran.State = task.Completed
	ran.Yield = 100 // delivered more value than negotiated
	if got := c.ChargedPrice(); got != 60 {
		t.Errorf("ChargedPrice = %v, want negotiated 60", got)
	}
	ran.Yield = 30 // late delivery
	if got := c.ChargedPrice(); got != 30 {
		t.Errorf("ChargedPrice = %v, want value-limited 30", got)
	}
	ran.Yield = -10 // penalty region
	if got := c.ChargedPrice(); got != -10 {
		t.Errorf("ChargedPrice = %v, want penalty -10", got)
	}
}

func TestBrokerAppliesSecondPrice(t *testing.T) {
	// Two idle sites produce two offers with equal expected prices; under
	// SecondPrice the winner charges the competitor's price.
	ex := NewExchange(BestYield{}, exchangeConfigs(2, admission.AcceptAll{}))
	ex.Pricer = SecondPrice{}
	tk := task.New(1, 0, 10, 100, 1, math.Inf(1))
	var contract *Contract
	ex.Engine.At(0, func() { contract = ex.Negotiate(tk) })
	ex.Engine.Run()

	if contract == nil {
		t.Fatal("no contract")
	}
	if contract.NegotiatedPrice != contract.Server.ExpectedPrice {
		t.Errorf("equal offers: negotiated %v, want %v",
			contract.NegotiatedPrice, contract.Server.ExpectedPrice)
	}
	if contract.ChargedPrice() != contract.NegotiatedPrice {
		t.Errorf("on-time charge %v, want %v", contract.ChargedPrice(), contract.NegotiatedPrice)
	}
}

func TestClientBudgetGating(t *testing.T) {
	ex := NewExchange(BestYield{}, exchangeConfigs(1, admission.AcceptAll{}))
	client := NewClient(ex, ClientConfig{
		Name: "u1", Budget: 150, Interval: math.Inf(1),
	})

	cheap := task.New(1, 0, 10, 100, 1, math.Inf(1))
	pricey := task.New(2, 0, 10, 100, 1, math.Inf(1))
	tooMuch := task.New(3, 0, 10, 100, 1, math.Inf(1))
	ex.Engine.At(0, func() {
		for _, tk := range []*task.Task{cheap, pricey, tooMuch} {
			client.SubmitTask(tk)
		}
	})
	ex.Engine.Run()

	// First task: charged 100, leaving 50. Second: bid value 100 > 50, so
	// it is unaffordable, as is the third.
	if client.Placed != 1 || client.Unaffordable != 2 {
		t.Fatalf("placed %d unaffordable %d, want 1/2", client.Placed, client.Unaffordable)
	}
	if client.remaining != 50 {
		t.Errorf("remaining = %v, want 50", client.remaining)
	}
	if tooMuch.State != task.Rejected {
		t.Errorf("unaffordable task state = %v, want rejected", tooMuch.State)
	}
}

func TestClientBudgetReplenishes(t *testing.T) {
	ex := NewExchange(BestYield{}, exchangeConfigs(1, admission.AcceptAll{}))
	client := NewClient(ex, ClientConfig{
		Name: "u1", Budget: 100, Interval: 50,
	})
	a := task.New(1, 0, 10, 100, 0.001, math.Inf(1))
	b := task.New(2, 1, 10, 100, 0.001, math.Inf(1))  // same interval: unaffordable
	c := task.New(3, 60, 10, 100, 0.001, math.Inf(1)) // next interval: affordable
	client.ScheduleArrivals([]*task.Task{a, b, c})
	ex.Engine.Run()

	if client.Placed != 2 || client.Unaffordable != 1 {
		t.Fatalf("placed %d unaffordable %d, want 2/1", client.Placed, client.Unaffordable)
	}
}

func TestShadedStrategyLowersCharge(t *testing.T) {
	runWith := func(strategy BidStrategy) float64 {
		ex := NewExchange(BestYield{}, exchangeConfigs(1, admission.AcceptAll{}))
		client := NewClient(ex, ClientConfig{
			Name: "u", Budget: 1e9, Strategy: strategy,
		})
		tk := task.New(1, 0, 10, 100, 1, math.Inf(1))
		var spent float64
		ex.Engine.At(0, func() {
			if c := client.SubmitTask(tk); c != nil {
				spent = c.NegotiatedPrice
			}
		})
		ex.Run()
		return spent
	}

	full := runWith(Truthful{})
	shaded := runWith(Shaded{Fraction: 0.5})
	if shaded >= full {
		t.Errorf("shaded bid charged %v, truthful %v; shading should lower the charge", shaded, full)
	}
	if full != 100 || shaded != 50 {
		t.Errorf("charges = %v/%v, want 100/50 on an idle site", full, shaded)
	}
}

func TestStrategyNames(t *testing.T) {
	if (Truthful{}).Name() == "" || (Shaded{Fraction: 0.5}).Name() == "" {
		t.Error("strategy names empty")
	}
}
