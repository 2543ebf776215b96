package wire

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/task"
)

// cohortBid labels a test bid with a trace-v2 cohort and client.
func cohortBid(id task.ID, runtime float64, cohort string, client int) market.Bid {
	b := testBid(id, runtime)
	b.Cohort = cohort
	b.Client = client
	return b
}

// closeTo compares settlement sums accumulated in different orders.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// TestServerLedgerBooksLifecycle drives contracts through award and
// settlement on a live server and checks the economic ledger reconciles
// with the settlement pushes the client saw: every award opened an entry,
// every settlement closed one, attribution labels survived the wire, and
// the summary gauges agree.
func TestServerLedgerBooksLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	led := obs.NewLedger(obs.LedgerConfig{Site: "l1", Policy: "firstreward", Registry: reg})
	srv := startServer(t, ServerConfig{SiteID: "l1", Processors: 2, Metrics: reg, Ledger: led})
	c := dialServer(t, srv)

	settled := make(chan Envelope, 4)
	c.SetOnSettled(func(e Envelope) { settled <- e })

	for i := 1; i <= 3; i++ {
		bid := cohortBid(task.ID(i), 10, "batch", i)
		sb, ok, err := c.Propose(bid)
		if err != nil || !ok {
			t.Fatalf("propose %d: %v %v", i, ok, err)
		}
		if _, ok, err := c.Award(bid, sb); err != nil || !ok {
			t.Fatalf("award %d: %v %v", i, ok, err)
		}
	}
	var clientView float64
	for i := 0; i < 3; i++ {
		select {
		case e := <-settled:
			clientView += e.FinalPrice
		case <-time.After(5 * time.Second):
			t.Fatal("missing settlement")
		}
	}

	if got := led.RealizedTotal(); !closeTo(got, clientView) {
		t.Fatalf("ledger realized total = %v, client saw %v", got, clientView)
	}
	s := led.Snapshot()
	if s.Totals.Opened != 3 || s.Totals.Settled != 3 || s.Totals.Open != 0 {
		t.Fatalf("totals = %+v, want 3 opened, 3 settled, 0 open", s.Totals)
	}
	if s.Totals.UnknownSettles != 0 {
		t.Fatalf("%d settlements had no matching award", s.Totals.UnknownSettles)
	}
	if got := led.Exposure(); got != 0 {
		t.Fatalf("exposure = %v after the book drained, want 0", got)
	}
	for _, e := range s.Entries {
		if e.Cohort != "batch" || e.Client == 0 {
			t.Fatalf("entry %d lost attribution: cohort=%q client=%d", e.Task, e.Cohort, e.Client)
		}
		if e.Outcome != obs.OutcomeSettled {
			t.Fatalf("entry %d outcome = %q, want settled", e.Task, e.Outcome)
		}
		if e.QuotedPrice <= 0 {
			t.Fatalf("entry %d quoted price = %v, want > 0", e.Task, e.QuotedPrice)
		}
	}

	sam := promSamples(t, reg)
	if got := sam[`site_cohort_tasks_total{site="l1",cohort="batch",event="accepted"}`]; got != 3 {
		t.Errorf("cohort accepted = %v, want 3", got)
	}
	if got := sam[`site_cohort_tasks_total{site="l1",cohort="batch",event="completed"}`]; got != 3 {
		t.Errorf("cohort completed = %v, want 3", got)
	}
	if got := sam[`site_yield_realized_total{site="l1"}`]; !closeTo(got, clientView) {
		t.Errorf("site_yield_realized_total = %v, want %v", got, clientView)
	}
	if got := sam[`site_penalty_exposure{site="l1"}`]; got != 0 {
		t.Errorf("site_penalty_exposure = %v, want 0", got)
	}
}

// TestServerLedgerCloseAbandons checks shutdown closes every open ledger
// entry as abandoned instead of leaking exposure.
func TestServerLedgerCloseAbandons(t *testing.T) {
	led := obs.NewLedger(obs.LedgerConfig{Site: "l2"})
	srv := startServer(t, ServerConfig{SiteID: "l2", Processors: 1,
		TimeScale: time.Millisecond, Ledger: led})
	c := dialServer(t, srv)

	for i := 1; i <= 3; i++ {
		bid := cohortBid(task.ID(i), 200, "batch", i) // long: all alive at Close
		sb, ok, err := c.Propose(bid)
		if err != nil || !ok {
			t.Fatalf("propose %d: %v %v", i, ok, err)
		}
		if _, ok, err := c.Award(bid, sb); err != nil || !ok {
			t.Fatalf("award %d: %v %v", i, ok, err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s := led.Snapshot()
	if s.Totals.Opened != 3 || s.Totals.Abandoned != 3 || s.Totals.Open != 0 {
		t.Fatalf("totals = %+v, want 3 opened all abandoned", s.Totals)
	}
	if got := led.Exposure(); got != 0 {
		t.Fatalf("exposure = %v after Close, want 0", got)
	}
}

// TestRecoverySeedsLedger restarts a journaled site and checks the fresh
// process's ledger still accounts for every contract the journal knows:
// pre-restart settlements and client-disconnect abandons replay as closed
// entries at their original times, open contracts re-open with their
// cohort attribution intact.
func TestRecoverySeedsLedger(t *testing.T) {
	dir := t.TempDir()
	led1 := obs.NewLedger(obs.LedgerConfig{Site: "r1"})
	srv := startServer(t, ServerConfig{SiteID: "r1", Processors: 1,
		DataDir: dir, Ledger: led1})
	c := dialServer(t, srv)

	settled := make(chan Envelope, 1)
	c.SetOnSettled(func(e Envelope) { settled <- e })

	award := func(c *SiteClient, b market.Bid) {
		t.Helper()
		sb, ok, err := c.Propose(b)
		if err != nil || !ok {
			t.Fatalf("propose %d: %v %v", b.TaskID, ok, err)
		}
		if _, ok, err := c.Award(b, sb); err != nil || !ok {
			t.Fatalf("award %d: %v %v", b.TaskID, ok, err)
		}
	}
	award(c, cohortBid(1, 5, "batch", 1))
	var final Envelope
	select {
	case final = <-settled:
	case <-time.After(5 * time.Second):
		t.Fatal("task 1 never settled")
	}
	award(c, cohortBid(2, 50000, "batch", 2))       // running at shutdown
	award(c, cohortBid(3, 50000, "interactive", 3)) // queued behind it
	// A second client's queued contract is abandoned when it disconnects.
	c2 := dialServer(t, srv)
	award(c2, cohortBid(4, 50000, "batch", 4))
	c2.Close()
	var abandoned obs.LedgerEntry
	waitFor(t, "task 4 to be abandoned after its client disconnected", func() bool {
		for _, e := range led1.Snapshot().Entries {
			if e.Task == 4 {
				abandoned = e
			}
		}
		return abandoned.Outcome == obs.OutcomeAbandoned
	})
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	led2 := obs.NewLedger(obs.LedgerConfig{Site: "r1"})
	srv2 := startServer(t, ServerConfig{SiteID: "r1", Processors: 1,
		DataDir: dir, Ledger: led2})
	defer srv2.Close()

	s := led2.Snapshot()
	if s.Totals.Opened != 4 {
		t.Fatalf("recovered ledger opened %d contracts, want all 4", s.Totals.Opened)
	}
	if s.Totals.Settled != 1 || s.Totals.Abandoned != 1 || s.Totals.Open != 2 {
		t.Fatalf("totals = %+v, want 1 settled, 1 abandoned and 2 re-opened", s.Totals)
	}
	if got := led2.RealizedTotal(); got != final.FinalPrice {
		t.Fatalf("recovered realized total = %v, want task 1's settlement %v", got, final.FinalPrice)
	}
	byTask := make(map[uint64]obs.LedgerEntry)
	for _, e := range s.Entries {
		byTask[e.Task] = e
	}
	if e := byTask[1]; e.Outcome != obs.OutcomeSettled || !closeTo(e.RealizedYield, final.FinalPrice) {
		t.Fatalf("task 1 replayed as %+v, want settled at %v", e, final.FinalPrice)
	}
	if e := byTask[3]; e.Outcome != obs.OutcomeOpen || e.Cohort != "interactive" || e.Client != 3 {
		t.Fatalf("task 3 recovered as %+v, want open with interactive/3 attribution", e)
	}
	if e := byTask[4]; e.Outcome != obs.OutcomeAbandoned || e.SettledAt != abandoned.SettledAt || e.Lateness != abandoned.Lateness {
		t.Fatalf("task 4 replayed as %+v, want the pre-restart abandon %+v", e, abandoned)
	}
	if led2.Exposure() <= 0 {
		t.Fatalf("exposure = %v with 2 open contracts, want > 0", led2.Exposure())
	}
}

// TestServerExpositionLint scrapes a registry fed by every live family —
// server metrics, negotiator metrics, and the ledger gauges — through the
// full Prometheus parser and lints the exposition: valid names and labels,
// no duplicate families, consistent histogram series.
func TestServerExpositionLint(t *testing.T) {
	reg := obs.NewRegistry()
	led := obs.NewLedger(obs.LedgerConfig{Site: "lint", Registry: reg})
	srv := startServer(t, ServerConfig{SiteID: "lint", Processors: 2, Metrics: reg, Ledger: led})
	c := dialServer(t, srv)

	settled := make(chan Envelope, 1)
	c.SetOnSettled(func(e Envelope) { settled <- e })
	neg := &Negotiator{Sites: []*SiteClient{c}, Retries: -1, Metrics: reg}
	b := cohortBid(9, 10, "batch", 1)
	if _, ok, err := neg.Negotiate(b); err != nil || !ok {
		t.Fatalf("negotiate: %v %v", ok, err)
	}
	select {
	case <-settled:
	case <-time.After(5 * time.Second):
		t.Fatal("no settlement")
	}

	var scrape strings.Builder
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	fams, err := obs.ParsePrometheus(strings.NewReader(scrape.String()))
	if err != nil {
		t.Fatalf("parse exposition: %v", err)
	}
	if errs := obs.LintExposition(fams); len(errs) != 0 {
		t.Fatalf("exposition lint: %v", errs)
	}
	names := make(map[string]bool, len(fams))
	for _, f := range fams {
		names[f.Name] = true
	}
	for _, want := range []string{
		"wire_rpc_total", "wire_rpc_seconds", "site_tasks_total",
		"site_yield_expected_total", "site_yield_realized_total", "site_penalty_exposure",
		"site_cohort_tasks_total", "site_cohort_yield_total",
		"market_negotiations_total",
	} {
		if !names[want] {
			t.Errorf("scrape is missing family %s", want)
		}
	}
}
