package wire

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/task"
)

// copyDir snapshots a data directory while its server is still live —
// exactly what a crash leaves behind: journaled records, no clean-shutdown
// marker, possibly a torn tail.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func awardTask(t *testing.T, c *SiteClient, id task.ID, runtime float64) {
	t.Helper()
	bid := testBid(id, runtime)
	sb, ok, err := c.Propose(bid)
	if err != nil || !ok {
		t.Fatalf("Propose(%d) = %v, %v", id, ok, err)
	}
	if _, ok, err = c.Award(bid, sb); err != nil || !ok {
		t.Fatalf("Award(%d) = %v, %v", id, ok, err)
	}
}

// TestGracefulRestartHonorsContracts awards contracts, shuts the server
// down cleanly, and restarts it on the same data directory: the contracts
// must come back as open, run, and settle to a re-subscribed client.
func TestGracefulRestartHonorsContracts(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{DataDir: dir, Processors: 1, TimeScale: time.Millisecond}
	srv := startServer(t, cfg)
	c := dialServer(t, srv)
	// One long runner occupies the processor; two more queue behind it.
	awardTask(t, c, 1, 2000)
	awardTask(t, c, 2, 50)
	awardTask(t, c, 3, 50)
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	reg := obs.NewRegistry()
	cfg.Metrics = reg
	srv2 := startServer(t, cfg)
	if srv2.Accepted != 3 {
		t.Fatalf("recovered Accepted = %d, want 3", srv2.Accepted)
	}
	c2 := dialServer(t, srv2)
	settled := make(chan Envelope, 3)
	c2.SetOnSettled(func(e Envelope) { settled <- e })
	seen := map[task.ID]bool{}
	for _, id := range []task.ID{1, 2, 3} {
		st, err := c2.Query(id)
		if err != nil {
			t.Fatalf("Query(%d): %v", id, err)
		}
		if st.State != ContractOpen {
			t.Fatalf("Query(%d) state = %q, want open", id, st.State)
		}
	}
	for len(seen) < 3 {
		select {
		case e := <-settled:
			seen[e.TaskID] = true
		case <-time.After(30 * time.Second):
			t.Fatalf("settlements stalled; saw %v", seen)
		}
	}
	if got := metricValue(t, reg, "site_contracts_recovered_total"); got != 3 {
		t.Fatalf("site_contracts_recovered_total = %v, want 3", got)
	}
	if got := metricValue(t, reg, "site_contracts_defaulted_total"); got != 0 {
		t.Fatalf("site_contracts_defaulted_total = %v, want 0", got)
	}
	// The settlements are now durable: a third incarnation reports them.
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = nil
	srv3 := startServer(t, cfg)
	c3 := dialServer(t, srv3)
	for _, id := range []task.ID{1, 2, 3} {
		st, err := c3.Query(id)
		if err != nil || st.State != ContractSettled {
			t.Fatalf("Query(%d) after settle = %+v, %v, want settled", id, st, err)
		}
	}
	if st, err := c3.Query(99); err != nil || st.State != ContractUnknown {
		t.Fatalf("Query(99) = %+v, %v, want unknown", st, err)
	}
}

// TestCrashRecoveryRegimes simulates a SIGKILL by copying the data
// directory out from under a live server mid-run, then recovers it under
// both crash regimes: requeue restarts the in-flight task, default settles
// it as defaulted at the decayed floor.
func TestCrashRecoveryRegimes(t *testing.T) {
	dir := t.TempDir()
	srv := startServer(t, ServerConfig{
		DataDir: dir, Processors: 1, TimeScale: time.Millisecond,
		Fsync: durable.FsyncAlways,
	})
	c := dialServer(t, srv)
	awardTask(t, c, 1, 60000) // runs for a minute: alive at the "crash"
	awardTask(t, c, 2, 50)    // queued behind it
	waitRunning(t, srv, 1)

	for _, regime := range []string{RegimeRequeue, RegimeDefault} {
		t.Run(regime, func(t *testing.T) {
			crash := copyDir(t, dir)
			reg := obs.NewRegistry()
			srv2 := startServer(t, ServerConfig{
				DataDir: crash, Processors: 1, TimeScale: time.Millisecond,
				CrashRegime: regime, Metrics: reg,
			})
			c2 := dialServer(t, srv2)
			st1, err := c2.Query(1)
			if err != nil {
				t.Fatal(err)
			}
			st2, err := c2.Query(2)
			if err != nil {
				t.Fatal(err)
			}
			if st2.State != ContractOpen {
				t.Fatalf("queued contract state = %q, want open", st2.State)
			}
			switch regime {
			case RegimeRequeue:
				if st1.State != ContractOpen {
					t.Fatalf("in-flight contract state = %q, want open (requeued)", st1.State)
				}
				if got := metricValue(t, reg, "site_contracts_recovered_total"); got != 2 {
					t.Fatalf("recovered = %v, want 2", got)
				}
			case RegimeDefault:
				if st1.State != ContractDefaulted {
					t.Fatalf("in-flight contract state = %q, want defaulted", st1.State)
				}
				if st1.FinalPrice > 0 {
					t.Fatalf("defaulted price = %v, want <= 0", st1.FinalPrice)
				}
				if srv2.Defaulted != 1 {
					t.Fatalf("Defaulted = %d, want 1", srv2.Defaulted)
				}
				if got := metricValue(t, reg, "site_contracts_defaulted_total"); got != 1 {
					t.Fatalf("defaulted metric = %v, want 1", got)
				}
			}
			if metricValue(t, reg, "site_recovery_records_replayed") < 3 {
				t.Fatal("recovery replayed-records gauge not set")
			}
			checkBook(t, srv2)
		})
	}
}

// TestCrashDefaultsExpiredContracts recovers a bounded contract whose
// deadline passed during the downtime: whatever the regime, it must be
// settled as defaulted with the full penalty, not silently dropped and not
// re-run.
func TestCrashDefaultsExpiredContracts(t *testing.T) {
	dir := t.TempDir()
	srv := startServer(t, ServerConfig{
		DataDir: dir, Processors: 1, TimeScale: time.Millisecond,
		Fsync: durable.FsyncAlways,
	})
	c := dialServer(t, srv)
	awardTask(t, c, 1, 60000) // occupies the processor
	// Bounded task: value 100, decay 50/unit, bound 30 — expires ~2.6
	// units (milliseconds) after arrival, long before the runner frees up.
	bid := testBid(2, 10)
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
	srv2 := startServer(t, ServerConfig{
		DataDir: crash, Processors: 1, TimeScale: time.Millisecond,
	})
	c2 := dialServer(t, srv2)
	st, err := c2.Query(2)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != ContractDefaulted {
		t.Fatalf("expired contract state = %q, want defaulted", st.State)
	}
	if st.FinalPrice != -30 {
		t.Fatalf("expired contract price = %v, want -30 (the bound)", st.FinalPrice)
	}
}

// TestAwardIdempotentAcrossRestart replays an award against a recovered
// server: the journal-backed contract book must return the standing terms
// instead of opening a second contract, and an award raced by its own
// settlement must report the settled price.
func TestAwardIdempotentAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{DataDir: dir, Processors: 2, TimeScale: time.Millisecond}
	srv := startServer(t, cfg)
	c := dialServer(t, srv)
	bid := testBid(1, 30000)
	sb, ok, err := c.Propose(bid)
	if err != nil || !ok {
		t.Fatalf("Propose = %v, %v", ok, err)
	}
	terms, ok, err := c.Award(bid, sb)
	if err != nil || !ok {
		t.Fatalf("Award = %v, %v", ok, err)
	}
	crash := copyDir(t, dir)
	srv2 := startServer(t, ServerConfig{DataDir: crash, Processors: 2, TimeScale: time.Millisecond})
	c2 := dialServer(t, srv2)
	again, ok, err := c2.Award(bid, sb)
	if err != nil || !ok {
		t.Fatalf("replayed Award = %v, %v", ok, err)
	}
	if again != terms {
		t.Fatalf("replayed award terms = %+v, want the standing %+v", again, terms)
	}
	if srv2.Accepted != 1 {
		t.Fatalf("Accepted = %d after replayed award, want 1", srv2.Accepted)
	}

	// Award-after-settlement: run a short task to completion, then retry
	// its award.
	short := testBid(7, 20)
	sb7, ok, err := c2.Propose(short)
	if err != nil || !ok {
		t.Fatalf("Propose(7) = %v, %v", ok, err)
	}
	if _, ok, err = c2.Award(short, sb7); err != nil || !ok {
		t.Fatalf("Award(7) = %v, %v", ok, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c2.Query(7)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == ContractSettled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("task 7 never settled; state %q", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	settledTerms, ok, err := c2.Award(short, sb7)
	if err != nil || !ok {
		t.Fatalf("award after settlement = %v, %v, want delivered terms", ok, err)
	}
	if settledTerms.ExpectedPrice == 0 {
		t.Fatal("award after settlement returned no final price")
	}
}

// TestQueryAdoptsSettlementOwner kills a client's connection mid-contract;
// a fresh connection that queries the open contract must receive its
// settlement push.
func TestQueryAdoptsSettlementOwner(t *testing.T) {
	dir := t.TempDir()
	srv := startServer(t, ServerConfig{DataDir: dir, Processors: 1, TimeScale: time.Millisecond})
	c := dialServer(t, srv)
	awardTask(t, c, 1, 300)
	waitRunning(t, srv, 1)
	// The owner vanishes; without re-subscription the settlement would go
	// to the void. (A running task survives owner loss; only queued tasks
	// are dropped.)
	c.Close()

	c2 := dialServer(t, srv)
	settled := make(chan Envelope, 1)
	c2.SetOnSettled(func(e Envelope) { settled <- e })
	st, err := c2.Query(1)
	if err != nil || st.State != ContractOpen {
		t.Fatalf("Query = %+v, %v, want open", st, err)
	}
	select {
	case e := <-settled:
		if e.TaskID != 1 {
			t.Fatalf("settlement for task %d, want 1", e.TaskID)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("adopted settlement never arrived")
	}
}

// TestJournalTimescaleMismatchRefused: replaying a journal under a
// different timescale would silently rescale every deadline; the server
// must refuse to start instead.
func TestJournalTimescaleMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	srv := startServer(t, ServerConfig{DataDir: dir, TimeScale: time.Millisecond})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer("127.0.0.1:0", ServerConfig{
		SiteID: "x", Processors: 1, Policy: core.FirstReward{Alpha: 0.3, DiscountRate: 0.01},
		DataDir: dir, TimeScale: 2 * time.Millisecond,
	}); err == nil {
		t.Fatal("timescale mismatch accepted")
	}
}

// TestContractJournalTornTailEveryOffset is the crash-consistency property
// of the one journal the service keeps: a real contract journal truncated
// at EVERY byte offset must open, fold, and equal the fold of exactly the
// whole records that survive — a clean prefix of the pre-crash history,
// never a corrupt or half-applied book. At every record boundary and a
// sample of mid-record offsets a server additionally recovers from the
// truncated journal and must hold exactly that book.
func TestContractJournalTornTailEveryOffset(t *testing.T) {
	// A small real journal covering every record kind a live site writes:
	// eight contracts that run and settle, two left running, and four
	// queued ones abandoned by their client's disconnect.
	master := t.TempDir()
	srv := startServer(t, ServerConfig{Processors: 2, DataDir: master})
	c := dialServer(t, srv)
	var settleWG sync.WaitGroup
	c.SetOnSettled(func(Envelope) { settleWG.Done() })
	for id := task.ID(1); id <= 8; id++ {
		settleWG.Add(1)
		awardTask(t, c, id, 2)
	}
	settleWG.Wait()
	awardTask(t, c, 9, 50000)
	awardTask(t, c, 10, 50000)
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for id := task.ID(11); id <= 14; id++ {
		awardTask(t, c2, id, 50000)
	}
	c2.Close()
	waitFor(t, "the disconnected client's 4 queued tasks to be abandoned", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.Abandoned == 4
	})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(master, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (err %v)", segs, err)
	}
	segName := filepath.Base(segs[0])
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}

	mj, err := durable.Open(master, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	err = mj.Replay(func(_ uint64, p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	mj.Close()
	if err != nil {
		t.Fatal(err)
	}
	// want[n] is the fold of the first n records, taken from a journal that
	// was never torn; ends[n] is the byte offset where record n-1 ends, so a
	// cut in [ends[n], ends[n+1]) must recover exactly n records.
	want := make([]*recoveredBook, len(payloads)+1)
	ends := make([]int, len(payloads)+1)
	pj, err := durable.Open(t.TempDir(), durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer pj.Close()
	for n := 0; ; n++ {
		if want[n], err = foldJournal(pj); err != nil {
			t.Fatalf("fold of the first %d records: %v", n, err)
		}
		if n == len(payloads) {
			break
		}
		if _, err := pj.Append(payloads[n]); err != nil {
			t.Fatal(err)
		}
		ends[n+1] = ends[n] + 8 + len(payloads[n]) // durable's frame: length, CRC, payload
	}
	if last := want[len(payloads)]; len(payloads) < 30 || len(last.done) != 8 || len(last.open) != 2 || len(last.closed) != 12 {
		t.Fatalf("journal of %d records folds to %d settled, %d open, %d closed; want 8, 2, 12",
			len(payloads), len(last.done), len(last.open), len(last.closed))
	}
	if ends[len(payloads)] != len(full) {
		t.Fatalf("records end at byte %d, segment holds %d", ends[len(payloads)], len(full))
	}

	cutDir := t.TempDir()
	n := 0
	for cut := 0; cut <= len(full); cut++ {
		if n < len(payloads) && cut == ends[n+1] {
			n++
		}
		if err := os.WriteFile(filepath.Join(cutDir, segName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := durable.Open(cutDir, durable.Options{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if records := j.Recovery().Records; int(records) != n {
			t.Fatalf("cut %d: recovered %d records, want the %d whole ones", cut, records, n)
		}
		got, err := foldJournal(j)
		j.Close()
		if err != nil {
			t.Fatalf("cut %d: fold: %v", cut, err)
		}
		if !reflect.DeepEqual(got, want[n]) {
			t.Fatalf("cut %d (%d records): recovered book is not the clean prefix:\ngot  %+v\nwant %+v", cut, n, got, want[n])
		}
		if cut != ends[n] && cut%397 != 0 {
			continue
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rs := startServer(t, ServerConfig{Processors: 2, DataDir: dir})
		rs.mu.Lock()
		accepted := rs.Accepted
		rs.mu.Unlock()
		// A recovered short task may already have re-run and settled;
		// open and settled contracts together are what must add up.
		book := rs.countBook()
		if accepted != len(want[n].open) || book.prices+book.settled != len(want[n].open)+len(want[n].done) {
			t.Fatalf("cut %d: recovered %d open contracts into a book of %+v; journal prefix holds %d open, %d settled",
				cut, accepted, book, len(want[n].open), len(want[n].done))
		}
		if err := rs.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// waitFor polls until ok reports true, failing the test after 5 seconds.
func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !ok(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func waitRunning(t *testing.T, srv *Server, id task.ID) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if srv.taskRunning(id) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("task %d never started", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// metricValue scrapes one sample of the named family out of the registry,
// summing across label sets (each test registry holds a single site).
func metricValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	sum, found := 0.0, false
	for sample, v := range promSamples(t, reg) {
		if sample == name || strings.HasPrefix(sample, name+"{") {
			sum += v
			found = true
		}
	}
	if !found {
		t.Fatalf("metric %s not found", name)
	}
	return sum
}
