package wire

import (
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/task"
)

// checkBook locks srv's book and asserts its invariants: each open record
// sits in exactly the indexes of its state, pending holds exactly the
// unsynced and queued records in strictly increasing booking order, and no
// contract is both open and settled.
func checkBook(t *testing.T, srv *Server) {
	t.Helper()
	srv.bookMu.Lock()
	defer srv.bookMu.Unlock()
	inPending := make(map[*contract]bool, len(srv.pending))
	for j, c := range srv.pending {
		if j > 0 && c.seq <= srv.pending[j-1].seq {
			t.Errorf("pending[%d] seq %d not above pending[%d] seq %d", j, c.seq, j-1, srv.pending[j-1].seq)
		}
		inPending[c] = true
	}
	for id, c := range srv.open {
		if c.t.ID != id {
			t.Errorf("record for task %d filed under %d", c.t.ID, id)
		}
		if _, dup := srv.settled[id]; dup {
			t.Errorf("task %d is both open and settled", id)
		}
		wantPending := c.state == stateUnsynced || c.state == stateQueued
		if c.state > stateRunning {
			t.Errorf("task %d in unknown state %d", id, c.state)
		}
		if inPending[c] != wantPending || (srv.running[id] == c) != (c.state == stateRunning) ||
			(srv.unsynced[id] == c) != (c.state == stateUnsynced) {
			t.Errorf("task %d in state %d: pending %v, running %v, unsynced %v", id, c.state,
				inPending[c], srv.running[id] == c, srv.unsynced[id] == c)
		}
	}
	for c := range inPending {
		if srv.open[c.t.ID] != c {
			t.Errorf("pending task %d is not an open record", c.t.ID)
		}
	}
	for id, c := range srv.running {
		if srv.open[id] != c {
			t.Errorf("running task %d is not an open record", id)
		}
	}
	for id, c := range srv.unsynced {
		if srv.open[id] != c {
			t.Errorf("unsynced task %d is not an open record", id)
		}
	}
}

// bookCounts is a census of the contract book; tests and diagnostics use
// it instead of reaching into the records.
// pending counts unsynced and queued contracts, timers running contracts
// whose completion timer is live, owners open contracts with a connected
// client, and prices every open contract (each carries standing terms).
type bookCounts struct {
	pending, running, timers, owners, prices, unsynced, settled int
}

func (s *Server) countBook() bookCounts {
	s.bookMu.Lock()
	defer s.bookMu.Unlock()
	b := bookCounts{pending: len(s.pending), running: len(s.running), prices: len(s.open),
		unsynced: len(s.unsynced), settled: len(s.settled)}
	for _, c := range s.open {
		if c.owner != nil {
			b.owners++
		}
		if c.timer != nil {
			b.timers++
		}
	}
	return b
}

// taskRunning reports whether id currently occupies a processor.
func (s *Server) taskRunning(id task.ID) bool {
	s.bookMu.Lock()
	defer s.bookMu.Unlock()
	_, ok := s.running[id]
	return ok
}

// quotedCount is the number of standing, unawarded quotes on the broker's
// book.
func quotedCount(b *BrokerServer) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, r := range b.book {
		if r.state == brokerQuoted {
			n++
		}
	}
	return n
}

// TestBrokerForgetsUnawardedQuotes sends more bids than the broker
// remembers quotes for and awards none of them: the standing quotes stay
// capped, the oldest is the one forgotten, and a fresh bid still awards.
func TestBrokerForgetsUnawardedQuotes(t *testing.T) {
	b, c, _ := startBrokerTopology(t, 1)
	const n = maxQuotes + 64
	for i := 1; i <= n; i++ {
		if _, ok, err := c.Propose(testBid(task.ID(i), 5)); err != nil || !ok {
			t.Fatalf("propose %d: %v %v", i, ok, err)
		}
	}
	if got := quotedCount(b); got > maxQuotes {
		t.Fatalf("broker holds %d unawarded quotes, cap %d", got, maxQuotes)
	}
	oldest := market.ServerBid{SiteID: "site-a", TaskID: 1, ExpectedCompletion: 5, ExpectedPrice: 1}
	if _, ok, err := c.Award(testBid(1, 5), oldest); err == nil && ok {
		t.Fatal("the oldest quote should have been forgotten, but its award went through")
	}

	bid := testBid(n+1, 5)
	sb, ok, err := c.Propose(bid)
	if err != nil || !ok {
		t.Fatalf("fresh propose: %v %v", ok, err)
	}
	if _, ok, err := c.Award(bid, sb); err != nil || !ok {
		t.Fatalf("fresh award: %v %v", ok, err)
	}
}

// TestRecoveryDefaultSplitsPenaltyByCohort defaults a bounded contract that
// expired during the downtime and checks the cohort split still sums to
// the site's penalty total after the restart.
func TestRecoveryDefaultSplitsPenaltyByCohort(t *testing.T) {
	dir := t.TempDir()
	srv := startServer(t, ServerConfig{
		DataDir: dir, Processors: 1, TimeScale: time.Millisecond,
		Fsync: durable.FsyncAlways,
	})
	c := dialServer(t, srv)
	awardTask(t, c, 1, 60000) // occupies the processor
	// Expires a few milliseconds after arrival, long before the runner
	// frees up; its default price is the -30 bound.
	bid := cohortBid(2, 10, "burst", 3)
	bid.Value, bid.Decay, bid.Bound = 100, 50, 30
	sb, ok, err := c.Propose(bid)
	if err != nil || !ok {
		t.Fatalf("Propose = %v, %v", ok, err)
	}
	if _, ok, err = c.Award(bid, sb); err != nil || !ok {
		t.Fatalf("Award = %v, %v", ok, err)
	}
	waitRunning(t, srv, 1)

	time.Sleep(20 * time.Millisecond) // downtime: task 2 expires
	crash := copyDir(t, dir)
	reg := obs.NewRegistry()
	startServer(t, ServerConfig{
		SiteID: "rec", DataDir: crash, Processors: 1, TimeScale: time.Millisecond, Metrics: reg,
	})
	s := promSamples(t, reg)
	total := s[`site_penalty_total{site="rec"}`]
	if total != 30 {
		t.Fatalf("site_penalty_total = %v, want 30 (the bound)", total)
	}
	split := 0.0
	for sample, v := range s {
		if strings.HasPrefix(sample, "site_cohort_yield_total{") && strings.Contains(sample, `kind="penalty"`) {
			split += v
		}
	}
	if split != total {
		t.Fatalf("cohort penalty split sums to %v, site_penalty_total = %v", split, total)
	}
}
