package market

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/task"
)

// Place runs the award step of the Figure 1 exchange over the offers a bid
// collected: it asks the selector for the best remaining offer and awards
// it, and when the award bounces (the site's mix changed since it quoted)
// or errors it drops that offer and asks again. award receives the offer's
// index in offers and returns the contract terms and whether the site took
// the task. Place returns the winner's index and terms, or -1 when the
// selector declined or every award bounced. A nil selector is BestYield;
// offers is not modified.
func Place(b Bid, offers []ServerBid, sel Selector, award func(i int) (ServerBid, bool, error)) (int, ServerBid) {
	if sel == nil {
		sel = BestYield{}
	}
	left := append([]ServerBid(nil), offers...)
	idx := make([]int, len(offers))
	for i := range idx {
		idx[i] = i
	}
	for len(left) > 0 {
		j := sel.Select(b, left)
		if j < 0 {
			break
		}
		if terms, ok, err := award(idx[j]); err == nil && ok {
			return idx[j], terms
		}
		left = append(left[:j], left[j+1:]...)
		idx = append(idx[:j], idx[j+1:]...)
	}
	return -1, ServerBid{}
}

// Exchange is an in-process multi-site economy: one simulation engine, its
// sites, and the buyer's selector and pricer. It is the harness for the
// multi-site experiments and the grid examples. A nil Selector is
// BestYield and a nil Pricer is FullPrice, so a caller that attaches its
// own site options can build one as a literal.
type Exchange struct {
	Engine   *sim.Engine
	Sites    []*site.Site
	Selector Selector
	Pricer   Pricer

	// Stats over negotiations.
	Negotiated int
	Placed     int
	Declined   int // every site rejected, or the selector declined all offers
}

// NewExchange builds one site per configuration on a fresh engine.
func NewExchange(selector Selector, cfgs []site.Config) *Exchange {
	ex := &Exchange{Engine: sim.New(), Selector: selector}
	for i, cfg := range cfgs {
		ex.Sites = append(ex.Sites, site.New(ex.Engine, fmt.Sprintf("site-%d", i), cfg))
	}
	return ex
}

// Negotiate runs one exchange for the task now. Every site quotes it
// against its candidate schedule and applies its admission policy without
// committing anything; Place then awards it by submitting it to the chosen
// site, which re-evaluates admission. It returns the contract, or nil with
// the task rejected when no site took it.
func (ex *Exchange) Negotiate(t *task.Task) *Contract {
	ex.Negotiated++
	bid := BidFromTask(t)
	var offers []ServerBid
	var sites []*site.Site
	for _, s := range ex.Sites {
		if q, err := s.Quote(t); err == nil && s.Admission().Admit(q) {
			offers = append(offers, ServerBid{SiteID: s.ID, TaskID: q.TaskID,
				ExpectedCompletion: q.ExpectedCompletion, ExpectedPrice: q.ExpectedYield})
			sites = append(sites, s)
		}
	}
	i, _ := Place(bid, offers, ex.Selector, func(i int) (ServerBid, bool, error) {
		accepted, err := sites[i].Submit(t)
		return offers[i], accepted, err
	})
	if i < 0 {
		ex.Declined++
		t.State = task.Rejected
		return nil
	}
	ex.Placed++
	pricer := ex.Pricer
	if pricer == nil {
		pricer = FullPrice{}
	}
	return &Contract{Bid: bid, Server: offers[i], AwardedAt: ex.Engine.Now(),
		NegotiatedPrice: pricer.Price(offers[i], offers), ran: t}
}

// ScheduleArrivals registers one negotiation per task at its arrival time.
// Tasks that no site accepts are dropped (the client keeps its currency).
func (ex *Exchange) ScheduleArrivals(tasks []*task.Task) {
	for _, t := range tasks {
		ex.Engine.At(t.Arrival, func() { ex.Negotiate(t) })
	}
}

// Run drives the exchange until all accepted work completes.
func (ex *Exchange) Run() { ex.Engine.Run() }

// TotalYield sums realized yield across all sites.
func (ex *Exchange) TotalYield() float64 {
	var sum float64
	for _, s := range ex.Sites {
		sum += s.Metrics().TotalYield
	}
	return sum
}
