package market

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/site"
	"repro/internal/task"
	"repro/internal/workload"
)

func exchangeConfigs(n int, adm admission.Policy) []site.Config {
	cfgs := make([]site.Config, n)
	for i := range cfgs {
		cfgs[i] = site.Config{
			Processors:   2,
			Policy:       core.FirstReward{Alpha: 0.3, DiscountRate: 0.01},
			Admission:    adm,
			DiscountRate: 0.01,
		}
	}
	return cfgs
}

// TestPlace drives the award loop with plain funcs: offers are ranked by
// EarliestCompletion, so the selector order is the completion order.
func TestPlace(t *testing.T) {
	offers := []ServerBid{
		{SiteID: "a", ExpectedCompletion: 30},
		{SiteID: "b", ExpectedCompletion: 10},
		{SiteID: "c", ExpectedCompletion: 20},
	}
	errDown := errors.New("site down")
	cases := []struct {
		name     string
		sel      Selector
		outcome  map[string]error // per site: nil takes the task, errBounce or another error refuses it
		want     int
		attempts []string
	}{
		{"first choice takes it", EarliestCompletion{}, map[string]error{}, 1, []string{"b"}},
		{"fallback follows selector order", EarliestCompletion{},
			map[string]error{"b": errBounce}, 2, []string{"b", "c"}},
		{"only the bounced offer is dropped", EarliestCompletion{},
			map[string]error{"b": errBounce, "c": errBounce}, 0, []string{"b", "c", "a"}},
		{"an award error is a bounce", EarliestCompletion{},
			map[string]error{"b": errDown}, 2, []string{"b", "c"}},
		{"a declining selector ends the exchange", declineAll{}, map[string]error{}, -1, nil},
		{"every award bouncing is declined", EarliestCompletion{},
			map[string]error{"a": errBounce, "b": errDown, "c": errBounce}, -1, []string{"b", "c", "a"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := append([]ServerBid(nil), offers...)
			var attempts []string
			i, terms := Place(Bid{TaskID: 1}, in, tc.sel, func(i int) (ServerBid, bool, error) {
				attempts = append(attempts, in[i].SiteID)
				switch err := tc.outcome[in[i].SiteID]; err {
				case nil:
					return in[i], true, nil
				case errBounce:
					return ServerBid{}, false, nil
				default:
					return ServerBid{}, false, err
				}
			})
			if i != tc.want {
				t.Fatalf("winner = %d, want %d", i, tc.want)
			}
			if i >= 0 && terms != offers[i] {
				t.Errorf("terms = %+v, want %+v", terms, offers[i])
			}
			if i < 0 && terms != (ServerBid{}) {
				t.Errorf("declined with terms %+v", terms)
			}
			if !reflect.DeepEqual(attempts, tc.attempts) {
				t.Errorf("awarded %v, want %v", attempts, tc.attempts)
			}
			if !reflect.DeepEqual(in, offers) {
				t.Errorf("Place modified its offers: %+v", in)
			}
		})
	}
}

// errBounce marks a site that refuses the award without an error.
var errBounce = errors.New("bounce")

type declineAll struct{}

func (declineAll) Select(Bid, []ServerBid) int { return -1 }

func TestExchangePlacesAndSettles(t *testing.T) {
	ex := NewExchange(BestYield{}, exchangeConfigs(3, admission.AcceptAll{}))
	spec := workload.Default()
	spec.Jobs = 60
	spec.Processors = 6
	spec.Seed = 5
	tr, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	tasks := tr.Clone()
	var contracts []*Contract
	for _, tk := range tasks {
		ex.Engine.At(tk.Arrival, func() {
			if c := ex.Negotiate(tk); c != nil {
				contracts = append(contracts, c)
			}
		})
	}
	ex.Run()

	if ex.Placed != len(tasks) || ex.Declined != 0 || len(contracts) != len(tasks) {
		t.Fatalf("placed %d declined %d contracts %d of %d", ex.Placed, ex.Declined, len(contracts), len(tasks))
	}
	var revenue, yield float64
	completed := 0
	for _, c := range contracts {
		if c.ran.State != task.Completed {
			t.Fatalf("task %d ended %v under contract", c.Bid.TaskID, c.ran.State)
		}
		revenue += c.ran.Yield
	}
	for _, s := range ex.Sites {
		m := s.Metrics()
		completed += m.Completed
		yield += m.TotalYield
	}
	if completed != len(tasks) {
		t.Fatalf("completed %d of %d", completed, len(tasks))
	}
	if math.Abs(revenue-yield) > 1e-6 {
		t.Fatalf("contract revenue %v != site yield %v", revenue, yield)
	}
	if math.Abs(ex.TotalYield()-yield) > 1e-6 {
		t.Fatalf("TotalYield() = %v, want %v", ex.TotalYield(), yield)
	}
}

func TestBrokerPrefersIdleSite(t *testing.T) {
	ex := NewExchange(BestYield{}, exchangeConfigs(2, admission.AcceptAll{}))
	eng := ex.Engine

	// Occupy site 0 with two long tasks, then negotiate a new one: it must
	// land on the idle site 1.
	blocker := task.New(1, 0, 1000, 100, 0.01, math.Inf(1))
	blocker2 := task.New(2, 0, 1000, 100, 0.01, math.Inf(1))
	probe := task.New(3, 1, 10, 100, 1, math.Inf(1))

	eng.At(0, func() {
		for _, b := range []*task.Task{blocker, blocker2} {
			if ok, err := ex.Sites[0].Submit(b); err != nil || !ok {
				t.Errorf("submit blocker %d: accepted %v, %v", b.ID, ok, err)
			}
		}
	})
	var contract *Contract
	eng.At(1, func() { contract = ex.Negotiate(probe) })
	eng.Run()

	if contract == nil || contract.Server.SiteID != "site-1" {
		t.Fatalf("probe placed on %+v, want site-1", contract)
	}
	if probe.State != task.Completed {
		t.Error("contract not settled after run")
	}
	if got := contract.ChargedPrice(); got != 100 {
		t.Errorf("charged price = %v, want 100 (ran immediately)", got)
	}
}

func TestBrokerDeclinesWhenAllReject(t *testing.T) {
	ex := NewExchange(BestYield{}, exchangeConfigs(2, admission.SlackThreshold{Threshold: 1e18}))
	probe := task.New(1, 0, 10, 100, 1, math.Inf(1))
	ex.Engine.At(0, func() {
		if c := ex.Negotiate(probe); c != nil {
			t.Errorf("Negotiate = %+v, want declined", c)
		}
	})
	ex.Engine.Run()
	if probe.State != task.Rejected {
		t.Errorf("probe state = %v, want rejected", probe.State)
	}
	if ex.Declined != 1 {
		t.Errorf("Declined = %d, want 1", ex.Declined)
	}
}

func TestLateContractPaysPenalty(t *testing.T) {
	// One slow site: a second task waits behind the first and settles below
	// its maximum value.
	cfgs := exchangeConfigs(1, admission.AcceptAll{})
	cfgs[0].Processors = 1
	ex := NewExchange(BestYield{}, cfgs)

	a := task.New(1, 0, 50, 100, 1, math.Inf(1))
	b := task.New(2, 0, 50, 100, 1, math.Inf(1))
	var ca, cb *Contract
	ex.Engine.At(0, func() {
		ca = ex.Negotiate(a)
		cb = ex.Negotiate(b)
	})
	ex.Engine.Run()

	if ca == nil || cb == nil || a.State != task.Completed || b.State != task.Completed {
		t.Fatal("contracts not settled")
	}
	// b was quoted knowing a is queued: expected completion 100, price 50,
	// and the quote already priced the delay, so the charge is not cut.
	if cb.Server.ExpectedPrice != 50 || b.Yield != 50 || cb.ChargedPrice() != 50 {
		t.Errorf("expected price %v / realized %v / charged %v, want 50/50/50 (quote foresaw the wait)",
			cb.Server.ExpectedPrice, b.Yield, cb.ChargedPrice())
	}
}

// TestShadedTaskSettles checks that a task placed under a shaded bid ends
// with its shadow's outcome, and that its contract keeps the task's
// workload labels.
func TestShadedTaskSettles(t *testing.T) {
	spec := workload.Default()
	spec.Jobs = 200
	spec.Processors = 4
	spec.Seed = 3
	tr, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	tasks := tr.Clone()
	for i, tk := range tasks {
		tk.Cohort, tk.Client = "batch", i%3+1
	}
	ex := NewExchange(BestYield{}, exchangeConfigs(2, admission.AcceptAll{}))
	client := NewClient(ex, ClientConfig{Name: "u", Budget: 1e18, Strategy: Shaded{Fraction: 0.6}})
	client.ScheduleArrivals(tasks)
	ex.Run()

	if client.Placed != len(tasks) {
		t.Fatalf("placed %d of %d", client.Placed, len(tasks))
	}
	shadows := map[task.ID]*task.Task{}
	for _, s := range ex.Sites {
		for _, sh := range s.Metrics().CompletedTasks {
			shadows[sh.ID] = sh
		}
	}
	byID := map[task.ID]*task.Task{}
	for _, tk := range tasks {
		byID[tk.ID] = tk
	}
	for _, c := range client.Contracts {
		tk, sh := byID[c.Bid.TaskID], shadows[c.Bid.TaskID]
		if sh == nil || sh == tk {
			t.Fatalf("task %d: no shadow completed at a site", c.Bid.TaskID)
		}
		if tk.State != task.Completed || tk.Completion != sh.Completion || tk.Start != sh.Start ||
			tk.Yield != sh.Yield || tk.Preemptions != sh.Preemptions {
			t.Fatalf("task %d: %v at %v (yield %v), shadow %v at %v (yield %v)",
				tk.ID, tk.State, tk.Completion, tk.Yield, sh.State, sh.Completion, sh.Yield)
		}
		if c.Bid.Cohort != tk.Cohort || c.Bid.Client != tk.Client {
			t.Errorf("task %d: contract labels %q/%d, want %q/%d",
				tk.ID, c.Bid.Cohort, c.Bid.Client, tk.Cohort, tk.Client)
		}
	}
}
