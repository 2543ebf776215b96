package wire

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/task"
)

func startServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	if cfg.SiteID == "" {
		cfg.SiteID = "test-site"
	}
	if cfg.Processors == 0 {
		cfg.Processors = 1
	}
	if cfg.Policy == nil {
		cfg.Policy = core.FirstReward{Alpha: 0.3, DiscountRate: 0.01}
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 100 * time.Microsecond
	}
	srv, err := NewServer("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func dialServer(t *testing.T, srv *Server) *SiteClient {
	t.Helper()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func testBid(id task.ID, runtime float64) market.Bid {
	return market.Bid{
		TaskID:  id,
		Runtime: runtime,
		Value:   runtime * 10,
		Decay:   1,
		Bound:   math.Inf(1),
	}
}

func TestProposeAwardSettle(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	c := dialServer(t, srv)

	settled := make(chan Envelope, 1)
	c.SetOnSettled(func(e Envelope) { settled <- e })

	bid := testBid(1, 10)
	sb, ok, err := c.Propose(bid)
	if err != nil || !ok {
		t.Fatalf("Propose = %+v, %v, %v", sb, ok, err)
	}
	if sb.SiteID != "test-site" || sb.TaskID != 1 {
		t.Fatalf("server bid = %+v", sb)
	}
	if sb.ExpectedPrice <= 0 {
		t.Fatalf("expected price %v, want > 0", sb.ExpectedPrice)
	}

	terms, ok, err := c.Award(bid, sb)
	if err != nil || !ok {
		t.Fatalf("Award = %+v, %v, %v", terms, ok, err)
	}

	select {
	case e := <-settled:
		if e.TaskID != 1 {
			t.Fatalf("settled task %d, want 1", e.TaskID)
		}
		if e.FinalPrice <= 0 {
			t.Errorf("final price %v, want > 0 for an on-time run", e.FinalPrice)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no settlement within 5s")
	}
	if srv.Completed != 1 {
		t.Errorf("server completed = %d, want 1", srv.Completed)
	}
}

func TestRejectBySlackThreshold(t *testing.T) {
	srv := startServer(t, ServerConfig{
		Admission: admission.SlackThreshold{Threshold: 1e18},
	})
	c := dialServer(t, srv)
	_, ok, err := c.Propose(testBid(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("site accepted past an impossible threshold")
	}
	if srv.Rejected != 1 {
		t.Errorf("server rejected = %d, want 1", srv.Rejected)
	}
}

func TestDuplicateAwardIdempotent(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	c := dialServer(t, srv)
	var wg sync.WaitGroup
	c.SetOnSettled(func(Envelope) { wg.Done() })

	bid := testBid(1, 50)
	sb, ok, err := c.Propose(bid)
	if err != nil || !ok {
		t.Fatal(err)
	}
	wg.Add(1)
	if _, ok, err := c.Award(bid, sb); err != nil || !ok {
		t.Fatalf("first award failed: %v %v", ok, err)
	}
	// A duplicate award is idempotent: the standing contract terms come
	// back so a client retrying after a connection failure is safe.
	terms, ok, err := c.Award(bid, sb)
	if err != nil || !ok {
		t.Fatalf("duplicate award = %v %v, want standing contract", ok, err)
	}
	if terms.TaskID != bid.TaskID || terms.SiteID != "test-site" {
		t.Fatalf("duplicate award terms = %+v", terms)
	}
	if srv.Accepted != 1 {
		t.Fatalf("accepted %d, want 1 (duplicate must not double-schedule)", srv.Accepted)
	}
	wg.Wait()
}

func TestNegotiatorPicksSomeSiteAndSettles(t *testing.T) {
	fast := startServer(t, ServerConfig{SiteID: "fast", Processors: 4})
	slow := startServer(t, ServerConfig{SiteID: "slow", Processors: 1})

	cFast := dialServer(t, fast)
	cSlow := dialServer(t, slow)
	var wg sync.WaitGroup
	done := func(Envelope) { wg.Done() }
	cFast.SetOnSettled(done)
	cSlow.SetOnSettled(done)

	neg := &Negotiator{Sites: []*SiteClient{cFast, cSlow}}
	for i := 1; i <= 6; i++ {
		wg.Add(1)
		_, ok, err := neg.Negotiate(testBid(task.ID(i), 20))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("task %d declined", i)
			wg.Done()
		}
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(10 * time.Second):
		t.Fatal("settlements did not drain")
	}
	if fast.Accepted+slow.Accepted != 6 {
		t.Fatalf("accepted %d + %d, want 6", fast.Accepted, slow.Accepted)
	}
	if fast.Accepted == 0 {
		t.Error("the larger site should win at least one negotiation")
	}
}

func TestServerRejectsMalformedMessages(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	c := dialServer(t, srv)
	// A well-formed envelope of an unexpected type gets an error reply.
	reply, err := c.roundTrip(Envelope{Type: TypeSettled})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeError {
		t.Fatalf("reply = %+v, want error", reply)
	}
	// And the connection still works afterward.
	if _, ok, err := c.Propose(testBid(2, 5)); err != nil || !ok {
		t.Fatalf("connection unusable after error reply: %v %v", ok, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := startServer(t, ServerConfig{Processors: 8})
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			var settleWG sync.WaitGroup
			c.SetOnSettled(func(Envelope) { settleWG.Done() })
			for j := 0; j < 5; j++ {
				bid := testBid(task.ID(base*100+j+1), 5)
				sb, ok, err := c.Propose(bid)
				if err != nil || !ok {
					errs <- err
					return
				}
				settleWG.Add(1)
				if _, ok, err := c.Award(bid, sb); err != nil || !ok {
					errs <- err
					return
				}
			}
			settleWG.Wait()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if srv.Completed != clients*5 {
		t.Fatalf("completed %d, want %d", srv.Completed, clients*5)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer("127.0.0.1:0", ServerConfig{Processors: 0, Policy: core.FCFS{}}); err == nil {
		t.Error("accepted zero processors")
	}
	if _, err := NewServer("127.0.0.1:0", ServerConfig{Processors: 1}); err == nil {
		t.Error("accepted nil policy")
	}
}

// TestServerBidAllocs guards the live bid path's allocations: a quote
// against a book 64 contracts deep is one ranking of the published
// snapshot plus an insertion, so handleBid allocates a fixed handful of
// buffers whatever the depth. The server is configured with Shards: 2,
// which the book ignores. Skipped under the race detector, whose
// instrumentation allocates.
func TestServerBidAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by the race detector")
	}
	const maxPerBid = 8
	srv := startServer(t, ServerConfig{Processors: 1, Shards: 2, TimeScale: time.Second})
	c := dialServer(t, srv)
	for id := task.ID(1); id <= 65; id++ { // one running, 64 queued behind it
		awardTask(t, c, id, 1000+float64(id))
	}
	if book := srv.countBook(); book.pending != 64 || book.running != 1 {
		t.Fatalf("book = %+v, want 64 queued and 1 running", book)
	}
	env := BidEnvelope(testBid(1000, 20))
	perBid := testing.AllocsPerRun(200, func() {
		if reply := srv.handleBid(env); reply.Type != TypeServerBid {
			t.Fatalf("bid answered %+v", reply)
		}
	})
	t.Logf("%.1f allocations per bid", perBid)
	if perBid > maxPerBid {
		t.Errorf("%.1f allocations per bid, want <= %d", perBid, maxPerBid)
	}
}

// TestServerRefusesRuntimePastTimerRange: a runtime whose wall-clock run
// overflows the completion timer's time.Duration is refused at propose and
// at award with an error naming the runtime. Were it contracted, the
// wrapped timer would settle it at once, long before the contracted
// completion.
func TestServerRefusesRuntimePastTimerRange(t *testing.T) {
	srv := startServer(t, ServerConfig{Processors: 1, TimeScale: time.Millisecond})
	c := dialServer(t, srv)
	settled := make(chan Envelope, 1)
	c.SetOnSettled(func(e Envelope) { settled <- e })
	bid := testBid(1, 1e13) // 1e13 units of 1 ms is past math.MaxInt64 ns
	const named = "runtime 1e+13"
	if sb, ok, err := c.Propose(bid); err == nil || !strings.Contains(err.Error(), named) {
		t.Errorf("propose = %+v, %v, %v; want an error naming the %s", sb, ok, err, named)
	}
	terms, ok, err := c.Award(bid, market.ServerBid{SiteID: srv.cfg.SiteID, TaskID: 1, ExpectedCompletion: 1e13})
	if err == nil || !strings.Contains(err.Error(), named) {
		t.Errorf("award = %+v, %v, %v; want an error naming the %s", terms, ok, err, named)
	}
	if !ok {
		return
	}
	select {
	case e := <-settled:
		if e.CompletedAt < terms.ExpectedCompletion {
			t.Fatalf("task settled at %v for %v, before its contracted completion %v",
				e.CompletedAt, e.FinalPrice, terms.ExpectedCompletion)
		}
	case <-time.After(time.Second):
	}
}
