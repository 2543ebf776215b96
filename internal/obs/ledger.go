package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Contract outcomes as recorded in the ledger. A contract opens at award
// time and closes exactly once with one of the terminal outcomes.
const (
	OutcomeOpen      = "open"      // awarded, not yet settled
	OutcomeSettled   = "settled"   // completed and priced by the value function
	OutcomeParked    = "parked"    // simulator: expired bounded task, penalty realized
	OutcomeDefaulted = "defaulted" // live service: site reported a default
	OutcomeAbandoned = "abandoned" // contract died (shutdown, disconnect) with no settlement
)

// LedgerEntry is one contract's economic lifecycle: the terms struck at
// award time and the outcome realized at settlement. Monetary fields are in
// value units of the task's value function; times are simulation units in
// the recording process's clock domain.
type LedgerEntry struct {
	Task   uint64 `json:"task"`
	Req    string `json:"req,omitempty"`
	Site   string `json:"site,omitempty"`
	Policy string `json:"policy,omitempty"`
	Cohort string `json:"cohort,omitempty"`
	Client int    `json:"client,omitempty"`

	// Award-time terms.
	BidValue           float64 `json:"bid_value"`           // task value at arrival (value function at t=0)
	QuotedPrice        float64 `json:"quoted_price"`        // expected yield promised by the admission quote
	ExpectedCompletion float64 `json:"expected_completion"` // completion time the quote promised
	AwardedAt          float64 `json:"awarded_at"`          // when the contract opened

	// Settlement-time outcome. Zero until the contract closes.
	Outcome       string  `json:"outcome"`
	SettledAt     float64 `json:"settled_at,omitempty"`
	RealizedYield float64 `json:"realized_yield"`
	Penalty       float64 `json:"penalty,omitempty"`  // max(0, quoted - realized)
	Lateness      float64 `json:"lateness,omitempty"` // settled_at - expected_completion
}

// LedgerTotals aggregates the ledger's full history (not just the retained
// window): counts by outcome and the running yield sums. RealizedYield is
// accumulated in settlement call order, so for a deterministic run it is
// bit-identical to a scheduler summing the same per-task yields in the same
// order.
type LedgerTotals struct {
	Opened         int     `json:"opened"`
	Open           int     `json:"open"`
	Settled        int     `json:"settled"`
	Parked         int     `json:"parked"`
	Defaulted      int     `json:"defaulted"`
	Abandoned      int     `json:"abandoned"`
	Evicted        int     `json:"evicted"`         // closed entries dropped from the window
	UnknownSettles int     `json:"unknown_settles"` // settlements for contracts the ledger never opened
	ExpectedYield  float64 `json:"expected_yield"`  // sum of quoted prices over all opened contracts
	RealizedYield  float64 `json:"realized_yield"`  // sum of realized yields over all closed contracts
	Penalty        float64 `json:"penalty"`         // sum of realized penalties
	Exposure       float64 `json:"exposure"`        // sum of quoted prices over still-open contracts
}

// LedgerRollup is one cell of the windowed yield attribution: all retained
// contracts sharing a cohort, policy, and outcome.
type LedgerRollup struct {
	Cohort        string  `json:"cohort"`
	Policy        string  `json:"policy"`
	Outcome       string  `json:"outcome"`
	Contracts     int     `json:"contracts"`
	BidValue      float64 `json:"bid_value"`
	ExpectedYield float64 `json:"expected_yield"`
	RealizedYield float64 `json:"realized_yield"`
	Penalty       float64 `json:"penalty"`
}

// LedgerSnapshot is the JSON document served at /debug/ledger: lifetime
// totals, the cohort × policy × outcome roll-up over the retained window,
// and the retained entries themselves.
type LedgerSnapshot struct {
	Site    string         `json:"site"`
	Totals  LedgerTotals   `json:"totals"`
	Rollups []LedgerRollup `json:"rollups"`
	Entries []LedgerEntry  `json:"entries"`
}

// LedgerConfig parameterizes a Ledger.
type LedgerConfig struct {
	// Site stamps every entry (and the metric label) with the recording
	// site's ID.
	Site string
	// Policy is the default policy label for entries that don't carry one.
	Policy string
	// Capacity bounds the retained window. Closed entries beyond it are
	// evicted oldest-first; open entries are never evicted (their exposure
	// is still live), so memory is bounded by Capacity plus the open
	// contract book. Zero means DefaultLedgerCapacity.
	Capacity int
	// Registry, when non-nil, receives the summary gauge families
	// site_yield_expected_total, site_yield_realized_total, and
	// site_penalty_exposure, updated on every ledger mutation.
	Registry *Registry
}

// DefaultLedgerCapacity is the retained-entry bound when LedgerConfig
// leaves Capacity zero.
const DefaultLedgerCapacity = 16384

// Ledger is an append-only, bounded, in-memory record of contract
// economics. Both the simulator's recorder and the live TCP server feed
// one, so sim-vs-live calibration extends to yield attribution. A nil
// *Ledger discards everything.
type Ledger struct {
	site     string
	policy   string
	capacity int

	mu      sync.Mutex
	entries []*LedgerEntry
	open    map[uint64]*LedgerEntry
	totals  LedgerTotals

	// Summary gauges; realized yield can decrease (penalties are negative
	// yields), so these are gauges despite the _total suffix.
	mExpected *Gauge
	mRealized *Gauge
	mExposure *Gauge
}

// NewLedger builds a ledger. See LedgerConfig for the knobs.
func NewLedger(cfg LedgerConfig) *Ledger {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultLedgerCapacity
	}
	l := &Ledger{
		site:     cfg.Site,
		policy:   cfg.Policy,
		capacity: cfg.Capacity,
		open:     make(map[uint64]*LedgerEntry),
	}
	if cfg.Registry != nil {
		l.mExpected = cfg.Registry.Gauge("site_yield_expected_total",
			"Sum of quoted prices (expected yield at award) over every contract the ledger opened.",
			"site").With(cfg.Site)
		l.mRealized = cfg.Registry.Gauge("site_yield_realized_total",
			"Sum of realized yields over settled contracts; penalties make it decrease.",
			"site").With(cfg.Site)
		l.mExposure = cfg.Registry.Gauge("site_penalty_exposure",
			"Sum of quoted prices over still-open contracts: yield promised but not yet realized.",
			"site").With(cfg.Site)
	}
	return l
}

// Open records a contract award. Task, BidValue, QuotedPrice,
// ExpectedCompletion, and AwardedAt should be set by the caller; Site and
// Policy default from the ledger config. Re-opening a task already open is
// idempotent (the first award's terms stand).
func (l *Ledger) Open(e LedgerEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.open[e.Task]; dup {
		return
	}
	if e.Site == "" {
		e.Site = l.site
	}
	if e.Policy == "" {
		e.Policy = l.policy
	}
	e.Outcome = OutcomeOpen
	ent := &e
	l.entries = append(l.entries, ent)
	l.open[e.Task] = ent
	l.totals.Opened++
	l.totals.Open++
	l.totals.ExpectedYield += e.QuotedPrice
	l.totals.Exposure += e.QuotedPrice
	l.evictLocked()
	l.publishLocked()
}

// Settle closes an open contract with a terminal outcome and its realized
// yield. It returns false when the ledger has no open entry for the task
// (never awarded, or already closed) — the realized yield still enters the
// running total so downstream reconciliation can account for it, and the
// miss is counted in UnknownSettles.
func (l *Ledger) Settle(taskID uint64, outcome string, at, realized float64) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ent, ok := l.open[taskID]
	if !ok {
		l.totals.UnknownSettles++
		l.totals.RealizedYield += realized
		l.publishLocked()
		return false
	}
	delete(l.open, taskID)
	ent.Outcome = outcome
	ent.SettledAt = at
	ent.RealizedYield = realized
	if p := ent.QuotedPrice - realized; p > 0 {
		ent.Penalty = p
	}
	ent.Lateness = at - ent.ExpectedCompletion
	l.totals.Open--
	if l.totals.Open == 0 {
		// An empty book has exactly zero exposure; the incremental sum can
		// carry float round-off when contracts close out of open order.
		l.totals.Exposure = 0
	} else {
		l.totals.Exposure -= ent.QuotedPrice
	}
	l.totals.RealizedYield += realized
	l.totals.Penalty += ent.Penalty
	switch outcome {
	case OutcomeSettled:
		l.totals.Settled++
	case OutcomeParked:
		l.totals.Parked++
	case OutcomeDefaulted:
		l.totals.Defaulted++
	default:
		l.totals.Abandoned++
	}
	l.publishLocked()
	return true
}

// evictLocked enforces the retention bound: when the window overflows,
// the oldest closed entries are dropped (open entries always survive — the
// exposure they carry is live). Compaction runs with slack so it costs
// O(capacity) only once per capacity/4 appends.
func (l *Ledger) evictLocked() {
	if len(l.entries) <= l.capacity+l.capacity/4 {
		return
	}
	drop := len(l.entries) - l.capacity
	kept := make([]*LedgerEntry, 0, l.capacity)
	for _, e := range l.entries {
		if drop > 0 && e.Outcome != OutcomeOpen {
			drop--
			l.totals.Evicted++
			continue
		}
		kept = append(kept, e)
	}
	l.entries = kept
}

// publishLocked refreshes the summary gauges.
func (l *Ledger) publishLocked() {
	l.mExpected.Set(l.totals.ExpectedYield)
	l.mRealized.Set(l.totals.RealizedYield)
	l.mExposure.Set(l.totals.Exposure)
}

// ExpectedTotal returns the lifetime sum of quoted prices.
func (l *Ledger) ExpectedTotal() float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totals.ExpectedYield
}

// RealizedTotal returns the lifetime sum of realized yields, accumulated in
// settlement order.
func (l *Ledger) RealizedTotal() float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totals.RealizedYield
}

// Exposure returns the quoted value of still-open contracts.
func (l *Ledger) Exposure() float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totals.Exposure
}

// OpenCount returns the number of contracts awaiting settlement.
func (l *Ledger) OpenCount() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totals.Open
}

// Snapshot copies the ledger: lifetime totals, a cohort × policy × outcome
// roll-up over the retained window, and the retained entries in append
// order.
func (l *Ledger) Snapshot() LedgerSnapshot {
	if l == nil {
		return LedgerSnapshot{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := LedgerSnapshot{Site: l.site, Totals: l.totals}
	s.Entries = make([]LedgerEntry, len(l.entries))
	cells := make(map[[3]string]*LedgerRollup)
	for i, e := range l.entries {
		s.Entries[i] = *e
		key := [3]string{e.Cohort, e.Policy, e.Outcome}
		cell, ok := cells[key]
		if !ok {
			cell = &LedgerRollup{Cohort: e.Cohort, Policy: e.Policy, Outcome: e.Outcome}
			cells[key] = cell
		}
		cell.Contracts++
		cell.BidValue += e.BidValue
		cell.ExpectedYield += e.QuotedPrice
		cell.RealizedYield += e.RealizedYield
		cell.Penalty += e.Penalty
	}
	s.Rollups = make([]LedgerRollup, 0, len(cells))
	for _, cell := range cells {
		s.Rollups = append(s.Rollups, *cell)
	}
	sort.Slice(s.Rollups, func(i, j int) bool {
		a, b := s.Rollups[i], s.Rollups[j]
		if a.Cohort != b.Cohort {
			return a.Cohort < b.Cohort
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		return a.Outcome < b.Outcome
	})
	return s
}

// WriteJSON writes the snapshot as indented JSON — the /debug/ledger
// payload and the -ledger-out file format.
func (l *Ledger) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(l.Snapshot())
}

// CohortLabel normalizes a trace-v2 cohort name for use as a metric label:
// unlabeled tasks group under "none".
func CohortLabel(c string) string {
	if c == "" {
		return "none"
	}
	return c
}
