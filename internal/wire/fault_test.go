package wire

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/task"
	"repro/internal/wire/faultconn"
)

// proxyFor puts a fault-injecting proxy in front of srv and dials a client
// through it.
func proxyFor(t *testing.T, srv *Server, cfg ClientConfig) (*faultconn.Proxy, *SiteClient) {
	t.Helper()
	p, err := faultconn.NewProxy(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	c, err := DialConfig(p.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return p, c
}

// TestServerCloseDuringSettlement awards a batch of long tasks and closes
// the server while every one of them is mid-run: Close must cancel the
// completion timers, so no settlement is sent after Close returns, and the
// books must show the work as abandoned.
func TestServerCloseDuringSettlement(t *testing.T) {
	srv := startServer(t, ServerConfig{Processors: 2, TimeScale: time.Millisecond})
	c := dialServer(t, srv)

	var settledAfterClose atomic.Bool
	var closed atomic.Bool
	var settledCount atomic.Int32
	c.SetOnSettled(func(Envelope) {
		settledCount.Add(1)
		if closed.Load() {
			settledAfterClose.Store(true)
		}
	})

	const n = 5
	for i := 1; i <= n; i++ {
		bid := testBid(task.ID(i), 300) // 300ms each; nothing settles before Close
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
	closed.Store(true)
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	time.Sleep(100 * time.Millisecond) // room for any leaked timer to fire
	if settledAfterClose.Load() {
		t.Error("settlement delivered after Close returned")
	}
	if got := settledCount.Load(); got != 0 {
		t.Errorf("settled %d tasks, want 0 (all were mid-run at Close)", got)
	}
	srv.mu.Lock()
	abandoned := srv.Abandoned
	srv.mu.Unlock()
	if abandoned != n {
		t.Errorf("abandoned %d, want %d", abandoned, n)
	}
	if timers := srv.countBook().timers; timers != 0 {
		t.Errorf("%d completion timers still tracked after Close", timers)
	}
}

// TestShutdownUnderLoad closes the server while several clients are
// negotiating and settlements are streaming: every client must unwind with
// an error promptly instead of hanging, race-free.
func TestShutdownUnderLoad(t *testing.T) {
	srv := startServer(t, ServerConfig{Processors: 4, TimeScale: 100 * time.Microsecond})

	const clients = 4
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			c, err := DialConfig(srv.Addr(), ClientConfig{RequestTimeout: 2 * time.Second})
			if err != nil {
				return
			}
			defer c.Close()
			c.SetOnSettled(func(Envelope) {})
			for j := 1; ; j++ {
				bid := testBid(task.ID(base*1000+j), 20)
				sb, ok, err := c.Propose(bid)
				if err != nil {
					return // server shut down underneath us
				}
				if !ok {
					continue
				}
				if _, _, err := c.Award(bid, sb); err != nil {
					return
				}
			}
		}(i)
	}

	time.Sleep(50 * time.Millisecond) // let load build, settlements in flight
	if err := srv.Close(); err != nil {
		t.Fatalf("close under load: %v", err)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("clients still wedged 5s after server Close")
	}
}

// TestClientVanishesMidContract drops the client abruptly while one task
// runs and more sit queued: the server must discard the queued tasks, let
// the running one finish into the void, and leave no owner/price entries
// behind.
func TestClientVanishesMidContract(t *testing.T) {
	srv := startServer(t, ServerConfig{Processors: 1, TimeScale: time.Millisecond})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}

	const n = 3
	for i := 1; i <= n; i++ {
		bid := testBid(task.ID(i), 150) // first runs ~150ms, rest queue behind it
		sb, ok, err := c.Propose(bid)
		if err != nil || !ok {
			t.Fatalf("propose %d: %v %v", i, ok, err)
		}
		if _, ok, err := c.Award(bid, sb); err != nil || !ok {
			t.Fatalf("award %d: %v %v", i, ok, err)
		}
	}
	c.Close() // vanish mid-contract

	deadline := time.Now().Add(5 * time.Second)
	for {
		book := srv.countBook()
		owners, prices, pending := book.owners, book.prices, book.pending
		srv.mu.Lock()
		completed, abandoned := srv.Completed, srv.Abandoned
		srv.mu.Unlock()
		if owners == 0 && prices == 0 && pending == 0 && completed+abandoned == n {
			if completed != 1 {
				t.Errorf("completed %d, want 1 (only the running task finishes)", completed)
			}
			if abandoned != n-1 {
				t.Errorf("abandoned %d, want %d (queued tasks dropped)", abandoned, n-1)
			}
			checkBook(t, srv)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cleanup incomplete: owners=%d prices=%d pending=%d completed=%d abandoned=%d",
				owners, prices, pending, completed, abandoned)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDisconnectWithoutQueuedTaskPublishesNothing checks that a closing
// connection republishes the book only when a queued task actually left it:
// an idle client, and one whose only contract is already running, change
// no scheduling state, so neither may deep-copy the book again or flip
// in-flight optimistic awards to a validation mismatch.
func TestDisconnectWithoutQueuedTaskPublishesNothing(t *testing.T) {
	reg := obs.NewRegistry()
	srv := startServer(t, ServerConfig{SiteID: "d1", Processors: 1,
		TimeScale: time.Millisecond, Metrics: reg})
	const long = 5000 // runtime far from finishing while the test runs
	runner, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	awardTask(t, runner, 1, long) // occupies the processor
	queuer := dialServer(t, srv)
	awardTask(t, queuer, 2, long)
	awardTask(t, queuer, 3, long)
	const publishes = `site_quote_snapshot_publishes_total{site="d1"}`
	before := promSamples(t, reg)[publishes]

	idle, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the idle connection to register", func() bool {
		return promSamples(t, reg)[`wire_connections{site="d1"}`] == 3
	})
	idle.Close()
	waitFor(t, "the idle connection to drop", func() bool {
		return promSamples(t, reg)[`wire_connections{site="d1"}`] == 2
	})
	// The runner's disconnect orphans task 1; its owner entry vanishing is
	// the observable end of that connection's cleanup.
	runner.Close()
	waitFor(t, "the running task to be orphaned", func() bool { return srv.countBook().owners == 2 })

	if book := srv.countBook(); book.pending != 2 || book.running != 1 {
		t.Fatalf("book = %+v, want 2 queued and 1 running untouched", book)
	}
	if after := promSamples(t, reg)[publishes]; after != before {
		t.Fatalf("%s moved %v -> %v on disconnects that removed no queued task", publishes, before, after)
	}
}

// TestSlowSiteNegotiation runs a negotiation where one site is behind a
// link slower than the request timeout: the slow site must drop out and
// the fast site must win, without the exchange stalling for the slow
// site's full delay.
func TestSlowSiteNegotiation(t *testing.T) {
	fast := startServer(t, ServerConfig{SiteID: "fast", Processors: 2})
	slow := startServer(t, ServerConfig{SiteID: "slow", Processors: 2})

	cFast := dialServer(t, fast)
	p, cSlow := proxyFor(t, slow, ClientConfig{RequestTimeout: 50 * time.Millisecond})
	p.SetDelay(500 * time.Millisecond)

	var settle sync.WaitGroup
	cFast.SetOnSettled(func(Envelope) { settle.Done() })

	neg := &Negotiator{Sites: []*SiteClient{cSlow, cFast}, Retries: -1}
	start := time.Now()
	settle.Add(1)
	terms, ok, err := neg.Negotiate(testBid(1, 10))
	if err != nil || !ok {
		t.Fatalf("Negotiate = %v %v, want fast-site contract", ok, err)
	}
	if terms.SiteID != "fast" {
		t.Fatalf("contract went to %q, want fast", terms.SiteID)
	}
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Errorf("negotiation took %v; slow site's delay leaked into the exchange", elapsed)
	}
	settle.Wait()
}

// TestPartialWriteMidAward severs the link mid-frame during the award: the
// server must not schedule anything off the truncated message, the client
// must surface a transient error, and a redial plus retry must land the
// contract cleanly.
func TestPartialWriteMidAward(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	p, c := proxyFor(t, srv, ClientConfig{RequestTimeout: 200 * time.Millisecond})

	bid := testBid(1, 10)
	sb, ok, err := c.Propose(bid)
	if err != nil || !ok {
		t.Fatalf("propose: %v %v", ok, err)
	}

	p.CutAfter(10) // the award frame dies 10 bytes in
	if _, _, err := c.Award(bid, sb); err == nil {
		t.Fatal("award over a severed link succeeded")
	} else if !transientErr(err) {
		t.Fatalf("award error %v not classified transient", err)
	}
	srv.mu.Lock()
	accepted := srv.Accepted
	srv.mu.Unlock()
	if accepted != 0 {
		t.Fatalf("server scheduled %d tasks off a truncated award", accepted)
	}

	p.CutAfter(-1)
	settled := make(chan Envelope, 1)
	c.SetOnSettled(func(e Envelope) { settled <- e })
	if err := c.Redial(); err != nil {
		t.Fatalf("redial: %v", err)
	}
	if _, ok, err := c.Award(bid, sb); err != nil || !ok {
		t.Fatalf("award after redial: %v %v", ok, err)
	}
	select {
	case <-settled:
	case <-time.After(5 * time.Second):
		t.Fatal("no settlement after recovered award")
	}
}

// TestNegotiatorRetriesAfterDrop kills the only site's connection out from
// under the negotiator: bounded retry with redial must recover the
// exchange transparently.
func TestNegotiatorRetriesAfterDrop(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	p, c := proxyFor(t, srv, ClientConfig{RequestTimeout: 2 * time.Second})

	neg := &Negotiator{Sites: []*SiteClient{c}, Retries: 2, Backoff: 5 * time.Millisecond}
	if _, ok, err := neg.Negotiate(testBid(1, 5)); err != nil || !ok {
		t.Fatalf("warm-up negotiate: %v %v", ok, err)
	}

	p.KillConnections()
	if _, ok, err := neg.Negotiate(testBid(2, 5)); err != nil || !ok {
		t.Fatalf("negotiate after drop: %v %v, want retry to recover", ok, err)
	}
	srv.mu.Lock()
	accepted := srv.Accepted
	srv.mu.Unlock()
	if accepted != 2 {
		t.Errorf("accepted %d, want 2", accepted)
	}
}

// TestNegotiateWithSiteKilledMidExchange is the acceptance scenario: a
// multi-site negotiation keeps completing after one site is forcibly
// killed partway through the run.
func TestNegotiateWithSiteKilledMidExchange(t *testing.T) {
	var servers []*Server
	var clients []*SiteClient
	var settle sync.WaitGroup
	for _, id := range []string{"doomed", "b", "c"} {
		srv := startServer(t, ServerConfig{SiteID: id, Processors: 2})
		c := dialServer(t, srv)
		c.SetOnSettled(func(Envelope) { settle.Done() })
		servers = append(servers, srv)
		clients = append(clients, c)
	}
	neg := &Negotiator{Sites: clients, Retries: 1, Backoff: time.Millisecond}

	settle.Add(1)
	if _, ok, err := neg.Negotiate(testBid(1, 10)); err != nil || !ok {
		t.Fatalf("negotiate 1: %v %v", ok, err)
	}

	if err := servers[0].Close(); err != nil { // site dies mid-exchange sequence
		t.Fatal(err)
	}
	for i := 2; i <= 5; i++ {
		settle.Add(1)
		terms, ok, err := neg.Negotiate(testBid(task.ID(i), 10))
		if err != nil || !ok {
			t.Fatalf("negotiate %d with a dead site in the pool: %v %v", i, ok, err)
		}
		if terms.SiteID == "doomed" {
			t.Fatalf("task %d contracted to the killed site", i)
		}
	}

	done := make(chan struct{})
	go func() { settle.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("settlements did not drain")
	}
}

// TestRequestTimeout points a client at a server that accepts and then
// never replies: the exchange must error out at the configured deadline
// instead of hanging forever.
func TestRequestTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, say nothing after the welcome
			_ = welcomeJSON(conn)
		}
	}()

	c, err := DialConfig(ln.Addr().String(), ClientConfig{RequestTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	start := time.Now()
	_, _, err = c.Propose(testBid(1, 5))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Propose error = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v to fire", elapsed)
	}
}

// TestIdleTimeoutClosesConnection lets a connection go quiet past the
// server's idle deadline and checks the server reaps it.
func TestIdleTimeoutClosesConnection(t *testing.T) {
	srv := startServer(t, ServerConfig{IdleTimeout: 40 * time.Millisecond})
	c := dialServer(t, srv)

	time.Sleep(250 * time.Millisecond)
	if _, _, err := c.Propose(testBid(1, 5)); err == nil {
		t.Fatal("request on an idle-reaped connection succeeded")
	}
	if err := c.Redial(); err != nil {
		t.Fatalf("redial after idle reap: %v", err)
	}
	if _, ok, err := c.Propose(testBid(2, 5)); err != nil || !ok {
		t.Fatalf("propose after redial: %v %v", ok, err)
	}
}

// TestBrokerSurvivesSiteDeath kills one of the broker's sites and checks
// clients can still place work through the broker on the surviving site.
func TestBrokerSurvivesSiteDeath(t *testing.T) {
	s1 := startServer(t, ServerConfig{SiteID: "s1", Processors: 2})
	s2 := startServer(t, ServerConfig{SiteID: "s2", Processors: 2})
	b, err := NewBrokerServer("127.0.0.1:0", BrokerConfig{
		SiteAddrs: []string{s1.Addr(), s2.Addr()},
		Retries:   1, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	c := dialBroker(t, b)
	settled := make(chan Envelope, 8)
	c.SetOnSettled(func(e Envelope) { settled <- e })

	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		bid := testBid(task.ID(i), 10)
		sb, ok, err := c.Propose(bid)
		if err != nil || !ok {
			t.Fatalf("propose %d through degraded broker: %v %v", i, ok, err)
		}
		if sb.SiteID != "s2" {
			t.Fatalf("offer from %q, want surviving site s2", sb.SiteID)
		}
		if _, ok, err := c.Award(bid, sb); err != nil || !ok {
			t.Fatalf("award %d: %v %v", i, ok, err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case <-settled:
		case <-time.After(5 * time.Second):
			t.Fatal("settlement missing through degraded broker")
		}
	}

	// A negotiator pointed at a market where no site answers reports an
	// error rather than a silent decline.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	deadC, err := DialConfig(b.Addr(), ClientConfig{RequestTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { deadC.Close() })
	if _, _, err := deadC.Propose(testBid(9, 10)); err == nil {
		t.Fatal("broker with every site dead still quoted a bid")
	}
}
