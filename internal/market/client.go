package market

import (
	"fmt"
	"math"

	"repro/internal/task"
)

// BidStrategy shapes the value function a client actually submits for a
// task. The paper assumes truthful bids but notes that pricing mechanisms
// exist precisely because buyers may shade; strategies make that dimension
// explorable.
type BidStrategy interface {
	Name() string
	// Shape returns the bid the client submits for the task. It must not
	// mutate the task.
	Shape(t *task.Task) Bid
}

// Truthful submits the task's own value function unchanged.
type Truthful struct{}

// Name implements BidStrategy.
func (Truthful) Name() string { return "truthful" }

// Shape implements BidStrategy.
func (Truthful) Shape(t *task.Task) Bid { return BidFromTask(t) }

// Shaded understates the task's maximum value by a fixed fraction,
// gambling that the site accepts anyway and charges less.
type Shaded struct {
	// Fraction of true value bid, in (0, 1].
	Fraction float64
}

// Name implements BidStrategy.
func (s Shaded) Name() string { return fmt.Sprintf("shaded(%g)", s.Fraction) }

// Shape implements BidStrategy.
func (s Shaded) Shape(t *task.Task) Bid {
	b := BidFromTask(t)
	f := s.Fraction
	if f <= 0 || f > 1 {
		f = 1
	}
	b.Value *= f
	return b
}

// ClientConfig parameterizes a budgeted client.
type ClientConfig struct {
	Name string
	// Budget is the currency granted at the start of each interval.
	// Unspent budget does not roll over, matching the per-interval grants
	// the paper envisions for economic resource managers.
	Budget float64
	// Interval is the replenishment period in simulation time units.
	Interval float64
	// Strategy shapes bids; nil means Truthful.
	Strategy BidStrategy
}

// Client is a budget-constrained buyer: it negotiates tasks through an
// exchange, committing budget for each contract at its negotiated price, and
// replenishes its budget every interval. Tasks whose negotiated price
// exceeds the remaining budget are withheld (counted as unaffordable)
// rather than submitted.
type Client struct {
	cfg ClientConfig
	ex  *Exchange

	// shadows maps each shaped task a site runs to the caller's task it
	// stands for; nil for a truthful client, which submits its own tasks.
	shadows map[*task.Task]*task.Task

	remaining float64
	interval  int // index of the interval `remaining` belongs to

	// Stats.
	Submitted    int
	Placed       int
	Declined     int
	Unaffordable int
	SpentTotal   float64
	Contracts    []*Contract
}

// NewClient attaches a client to an exchange. Budget replenishment is
// lazy — evaluated against the clock at each submission — so an idle
// client never keeps the simulation alive. A client with a non-truthful
// strategy observes the exchange's sites, so build it before the
// simulation starts.
func NewClient(ex *Exchange, cfg ClientConfig) *Client {
	if cfg.Strategy == nil {
		cfg.Strategy = Truthful{}
	}
	if cfg.Interval <= 0 {
		cfg.Interval = math.Inf(1)
	}
	c := &Client{cfg: cfg, ex: ex, remaining: cfg.Budget}
	if _, truthful := cfg.Strategy.(Truthful); !truthful {
		c.shadows = make(map[*task.Task]*task.Task)
		for _, s := range ex.Sites {
			s.ObserveCompletions(c.mirror)
		}
	}
	return c
}

// refresh rolls the budget forward to the interval containing now.
func (c *Client) refresh() {
	if math.IsInf(c.cfg.Interval, 1) {
		return
	}
	idx := int(c.ex.Engine.Now() / c.cfg.Interval)
	if idx != c.interval {
		c.interval = idx
		c.remaining = c.cfg.Budget
	}
}

// SubmitTask negotiates one task placement now, under the client's
// strategy and budget. It returns the contract, or nil if the task was
// withheld as unaffordable or no site took it.
func (c *Client) SubmitTask(t *task.Task) *Contract {
	c.Submitted++
	c.refresh()
	bid := c.cfg.Strategy.Shape(t)

	// Affordability gate: the most the client can be charged is the bid's
	// maximum value (the negotiated price never exceeds it).
	if bid.Value > c.remaining {
		c.Unaffordable++
		t.State = task.Rejected
		return nil
	}

	contract := c.negotiate(t, bid)
	if contract == nil {
		c.Declined++
		return nil
	}
	c.Placed++
	c.remaining -= contract.NegotiatedPrice
	c.SpentTotal += contract.NegotiatedPrice
	c.Contracts = append(c.Contracts, contract)
	return contract
}

// negotiate places the task under the shaped bid. A truthful bid is the
// task itself. Otherwise the exchange places a shadow task carrying the
// shaped value function — the site schedules what actually runs, and the
// shaped value governs what it earns — and the caller's task mirrors the
// shadow's outcome.
func (c *Client) negotiate(t *task.Task, bid Bid) *Contract {
	if c.shadows == nil {
		return c.ex.Negotiate(t)
	}
	shadow := task.New(t.ID, t.Arrival, bid.Runtime, bid.Value, bid.Decay, bid.Bound)
	shadow.Class, shadow.Cohort, shadow.Client = t.Class, t.Cohort, t.Client
	c.shadows[shadow] = t
	contract := c.ex.Negotiate(shadow)
	if contract == nil {
		delete(c.shadows, shadow)
	}
	t.State = shadow.State
	return contract
}

// mirror copies a finished shadow's outcome onto the caller's task. Its
// yield is the realized contract price: what the site earned under the
// shaped value function.
func (c *Client) mirror(shadow *task.Task) {
	t, ok := c.shadows[shadow]
	if !ok {
		return
	}
	delete(c.shadows, shadow)
	t.State, t.RPT, t.Start, t.Completion = shadow.State, shadow.RPT, shadow.Start, shadow.Completion
	t.Preemptions, t.Yield = shadow.Preemptions, shadow.Yield
}

// ScheduleArrivals registers the client's tasks at their arrival times.
func (c *Client) ScheduleArrivals(tasks []*task.Task) {
	for _, t := range tasks {
		c.ex.Engine.At(t.Arrival, func() { c.SubmitTask(t) })
	}
}
