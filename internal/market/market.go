// Package market implements the bidding, negotiation, and contract layer of
// the task-service economy (Sections 2 and 6, Figure 1).
//
// Clients submit sealed task bids — a resource request plus a value
// function — to one or more task-service sites, directly or through a
// broker. Each site evaluates the bid against its candidate schedule and
// either rejects it or answers with a server bid: an expected completion
// time and an expected price derived from the value function. The client
// awards the task to the site whose server bid it values most; a contract
// forms, and at completion the site is paid the value function evaluated at
// the actual completion time — late completions earn a reduced price or pay
// a penalty.
package market

import (
	"repro/internal/task"
	"repro/internal/valuefn"
)

// Bid is a client's sealed bid for running one task: the paper's tuple
// (runtime_i, value_i, decay_i, bound_i) plus the task identity and release
// time the buyer measures delay from.
type Bid struct {
	// ReqID is an optional lifecycle trace ID carried end to end by the
	// wire protocol; the market logic ignores it.
	ReqID   string  `json:"req,omitempty"`
	TaskID  task.ID `json:"task_id"`
	Arrival float64 `json:"arrival"`
	Runtime float64 `json:"runtime"`
	Value   float64 `json:"value"`
	Decay   float64 `json:"decay"`
	Bound   float64 `json:"-"` // +Inf for unbounded; the wire codec encodes it as a string
	// Cohort and Client carry the trace-v2 workload labels end to end for
	// attribution in metrics and the contract ledger; the market logic
	// ignores them.
	Cohort string `json:"cohort,omitempty"`
	Client int    `json:"client,omitempty"`
	// Deadline is the negotiation budget in wall-clock milliseconds still
	// remaining when the bid was last put on the wire (negative once spent,
	// zero when no budget was minted); the market logic ignores it — only
	// the wire layer stamps and consumes it.
	Deadline float64 `json:"deadline_ms,omitempty"`
}

// BidFromTask extracts the bid fields from a task.
func BidFromTask(t *task.Task) Bid {
	return Bid{TaskID: t.ID, Arrival: t.Arrival, Runtime: t.Runtime, Value: t.Value, Decay: t.Decay, Bound: t.Bound,
		Cohort: t.Cohort, Client: t.Client}
}

// YieldAtCompletion evaluates the bid's value function at an absolute
// completion time.
func (b Bid) YieldAtCompletion(completion float64) float64 {
	vf := valuefn.Linear{Value: b.Value, Decay: b.Decay, Bound: b.Bound}
	return vf.YieldAt(completion - (b.Arrival + b.Runtime))
}

// ServerBid is a site's response to a client bid it is willing to accept:
// the expected completion time in the site's candidate schedule and the
// expected price. Site policies treat bid value and price as equivalent
// (Section 6); a pricing strategy could lower the price without changing
// anything here.
type ServerBid struct {
	SiteID             string  `json:"site_id"`
	TaskID             task.ID `json:"task_id"`
	ExpectedCompletion float64 `json:"expected_completion"`
	ExpectedPrice      float64 `json:"expected_price"`
}

// Contract binds a client and a site to a negotiated expectation. If the
// site delays the task beyond the negotiated completion time, the value
// function determines the reduced price or penalty.
type Contract struct {
	Bid       Bid
	Server    ServerBid
	AwardedAt float64

	// NegotiatedPrice is the price agreed at award time. It equals the
	// server bid's expected price under the paper's default policy; a
	// Pricer (e.g. SecondPrice) may set it lower.
	NegotiatedPrice float64

	ran *task.Task // the task the site runs; its outcome settles the contract
}

// ChargedPrice is what the client actually pays once the site has run the
// task: the negotiated price, reduced to the realized yield if the site
// delivered late (a late task can never be charged more than its delivered
// value; a deep-late task charges the penalty). It is 0 until then.
func (c Contract) ChargedPrice() float64 {
	if c.ran == nil || c.ran.State != task.Completed {
		return 0
	}
	if c.ran.Yield < c.NegotiatedPrice {
		return c.ran.Yield
	}
	return c.NegotiatedPrice
}

// Selector ranks server bids for a client. Given the client's bid and the
// accepting sites' server bids, it returns the index of the winning offer,
// or -1 to decline them all.
type Selector interface {
	Select(b Bid, offers []ServerBid) int
}

// BestYield selects the server bid whose expected completion the client
// values most under its own value function, breaking ties toward the
// earlier completion. For linear decay this favors the earliest completion;
// the explicit evaluation keeps the selector correct for clamped and
// piecewise value functions too.
type BestYield struct{}

// Select implements Selector.
func (BestYield) Select(b Bid, offers []ServerBid) int {
	best := -1
	var bestYield float64
	for i, o := range offers {
		y := b.YieldAtCompletion(o.ExpectedCompletion)
		better := best < 0 || y > bestYield ||
			(y == bestYield && o.ExpectedCompletion < offers[best].ExpectedCompletion)
		if better {
			best, bestYield = i, y
		}
	}
	return best
}

// EarliestCompletion selects the offer with the soonest expected
// completion, a value-blind buyer used as a comparison point.
type EarliestCompletion struct{}

// Select implements Selector.
func (EarliestCompletion) Select(_ Bid, offers []ServerBid) int {
	best := -1
	for i, o := range offers {
		if best < 0 || o.ExpectedCompletion < offers[best].ExpectedCompletion {
			best = i
		}
	}
	return best
}
