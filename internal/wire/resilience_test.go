package wire

import (
	"strings"
	"testing"
	"time"

	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/task"
	"repro/internal/wire/faultconn"
)

// --- shed gate unit tests ---

func TestShedGateFloorRamp(t *testing.T) {
	g := newShedGate(10, 0)
	for i := 0; i < 50; i++ {
		g.observeAdmit(10) // EWMA converges to 10
	}
	if f := g.floorAt(5); f != 0 {
		t.Errorf("floor at half cap = %v, want 0", f)
	}
	mid := g.floorAt(8)
	if mid <= 0 || mid >= 2*g.ewma() {
		t.Errorf("floor at depth 8 = %v, want inside (0, %v)", mid, 2*g.ewma())
	}
	if f := g.floorAt(10); f < 1.99*g.ewma() {
		t.Errorf("floor at cap = %v, want ~%v", f, 2*g.ewma())
	}

	if _, reason := g.evaluate(10, 1e9); reason != shedReasonBookFull {
		t.Errorf("at cap: reason %q, want book_full regardless of value", reason)
	}
	if _, reason := g.evaluate(9, 0.01); reason != shedReasonValue {
		t.Errorf("low yield near cap: reason %q, want value_floor", reason)
	}
	if _, reason := g.evaluate(9, 1e9); reason != "" {
		t.Errorf("high yield near cap: reason %q, want admit", reason)
	}
	if _, reason := g.evaluate(1, 0); reason != "" {
		t.Errorf("shallow queue: reason %q, want admit", reason)
	}

	var disabled *shedGate
	if _, reason := disabled.evaluate(1000, 0); reason != "" {
		t.Errorf("nil gate shed %q, want admit", reason)
	}
}

func TestShedGateInflight(t *testing.T) {
	g := newShedGate(0, 2)
	if !g.acquire() || !g.acquire() {
		t.Fatal("first two slots refused")
	}
	if g.acquire() {
		t.Fatal("third slot granted past the cap")
	}
	g.release()
	if !g.acquire() {
		t.Fatal("slot not reusable after release")
	}
}

// --- site health unit tests ---

func testHealth(failures int, cooldown time.Duration, credit float64) (*siteHealth, *obs.Registry) {
	reg := obs.NewRegistry()
	m := newBrokerMetrics(reg)
	return newSiteHealth("s1", failures, cooldown, credit, &m), reg
}

func TestCircuitTripsAndRecovers(t *testing.T) {
	h, _ := testHealth(3, 50*time.Millisecond, 0.25)
	for i := 0; i < 3; i++ {
		if ok, _ := h.allow(); !ok {
			t.Fatalf("closed breaker refused call %d", i)
		}
		h.onResult(false, time.Millisecond, false)
	}
	if h.snapshotState() != circuitOpen {
		t.Fatalf("state after 3 failures = %d, want open", h.snapshotState())
	}
	if ok, _ := h.allow(); ok {
		t.Fatal("open breaker granted a call inside the cooldown")
	}
	time.Sleep(60 * time.Millisecond)
	ok, probe := h.allow()
	if !ok || !probe {
		t.Fatalf("cooldown elapsed: allow = %v probe = %v, want probe grant", ok, probe)
	}
	if ok, _ := h.allow(); ok {
		t.Fatal("second probe granted while one is in flight")
	}
	// Failed probe reopens immediately.
	h.onResult(false, time.Millisecond, true)
	if h.snapshotState() != circuitOpen {
		t.Fatalf("state after failed probe = %d, want open", h.snapshotState())
	}
	time.Sleep(60 * time.Millisecond)
	if ok, probe := h.allow(); !ok || !probe {
		t.Fatal("no probe after second cooldown")
	}
	h.onResult(true, time.Millisecond, true)
	if h.snapshotState() != circuitClosed {
		t.Fatalf("state after successful probe = %d, want closed", h.snapshotState())
	}
}

func TestCircuitSlowSuccessesTrip(t *testing.T) {
	h, _ := testHealth(3, time.Second, 0.25)
	for i := 0; i < 20; i++ {
		h.onResult(true, time.Millisecond, false) // establish the EWMA
	}
	for i := 0; i < 3; i++ {
		h.onResult(true, time.Second, false) // 1000x the EWMA: soft failures
	}
	if h.snapshotState() != circuitOpen {
		t.Fatalf("state after 3 crawling successes = %d, want open", h.snapshotState())
	}
}

func TestRetryBudgetExhausts(t *testing.T) {
	h, reg := testHealth(3, time.Second, 0.25)
	granted := 0
	for i := 0; i < retryTokenCap+4; i++ {
		if h.takeRetryToken() {
			granted++
		}
	}
	if granted != retryTokenCap {
		t.Errorf("granted %d retries from a full bucket, want %d", granted, retryTokenCap)
	}
	if v := metricValue(t, reg, "broker_site_retry_exhausted_total"); v != 4 {
		t.Errorf("retry_exhausted = %v, want 4", v)
	}
	// Four successes earn one token back.
	for i := 0; i < 4; i++ {
		h.onResult(true, time.Millisecond, false)
	}
	if !h.takeRetryToken() {
		t.Error("earned credit did not grant a retry")
	}
	if h.takeRetryToken() {
		t.Error("granted more credit than earned")
	}

	unlimited, _ := testHealth(3, time.Second, -1)
	for i := 0; i < 100; i++ {
		if !unlimited.takeRetryToken() {
			t.Fatal("unlimited budget refused a retry")
		}
	}
}

func TestHedgeDelayAdapts(t *testing.T) {
	h, _ := testHealth(3, time.Second, 0.25)
	if d := h.hedgeDelay(); d != hedgeDelayMax {
		t.Errorf("hedge delay with no history = %v, want the %v cap", d, hedgeDelayMax)
	}
	for i := 0; i < latWindow; i++ {
		h.onResult(true, time.Microsecond, false)
	}
	if d := h.hedgeDelay(); d != hedgeDelayMin {
		t.Errorf("hedge delay for a microsecond site = %v, want the %v floor", d, hedgeDelayMin)
	}
	// A site whose normal is 20ms prices its hedge at the 20ms quantile
	// (a fresh instance: against a microsecond baseline, 20ms answers are
	// slow outliers and deliberately stay out of the window).
	h2, _ := testHealth(3, time.Second, 0.25)
	for i := 0; i < latWindow; i++ {
		h2.onResult(true, 20*time.Millisecond, false)
	}
	if d := h2.hedgeDelay(); d != 20*time.Millisecond {
		t.Errorf("hedge delay = %v, want the 20ms quantile", d)
	}
}

// --- server shedding end to end ---

// fillSite awards `fill` long-running tasks so one runs and the rest sit in
// the pending book at the given depth.
func fillSite(t *testing.T, c *SiteClient, fill int) {
	t.Helper()
	for i := 1; i <= fill; i++ {
		bid := testBid(task.ID(i), 100000) // ~10s at the test timescale: never drains mid-test
		sb, ok, err := c.Propose(bid)
		if err != nil || !ok {
			t.Fatalf("filler propose %d: %v %v", i, ok, err)
		}
		if _, ok, err := c.Award(bid, sb); err != nil || !ok {
			t.Fatalf("filler award %d: %v %v", i, ok, err)
		}
		// Let the first filler reach a processor so later fillers measure
		// pending depth deterministically.
		if i == 1 {
			time.Sleep(50 * time.Millisecond)
		}
	}
}

func TestServerShedsPastBookCap(t *testing.T) {
	reg := obs.NewRegistry()
	srv := startServer(t, ServerConfig{Processors: 1, MaxPending: 2, Metrics: reg})
	c := dialServer(t, srv)
	fillSite(t, c, 3) // one running + two pending = depth 2 = the cap

	sb, ok, reason, err := c.ProposeDetail(testBid(50, 1))
	if err != nil {
		t.Fatalf("shed must be a reply, not an error: %v", err)
	}
	if ok {
		t.Fatalf("bid admitted past the cap: %+v", sb)
	}
	if !IsShedReason(reason) {
		t.Fatalf("reject reason %q does not mark a shed", reason)
	}
	if !strings.Contains(reason, shedReasonBookFull) && !strings.Contains(reason, "below floor") {
		t.Errorf("reason %q names no shed cause", reason)
	}
	if v := metricValue(t, reg, "site_shed_total"); v < 1 {
		t.Errorf("site_shed_total = %v, want >= 1", v)
	}
	srv.mu.Lock()
	shed := srv.Shed
	srv.mu.Unlock()
	if shed < 1 {
		t.Errorf("Server.Shed = %d, want >= 1", shed)
	}
}

func TestServerShedsSpentDeadline(t *testing.T) {
	reg := obs.NewRegistry()
	srv := startServer(t, ServerConfig{Metrics: reg})
	c := dialServer(t, srv)

	spent := testBid(1, 1)
	spent.Deadline = -1
	_, ok, reason, err := c.ProposeDetail(spent)
	if err != nil || ok {
		t.Fatalf("spent-deadline bid: ok=%v err=%v, want clean refusal", ok, err)
	}
	if !IsShedReason(reason) || !strings.Contains(reason, "deadline") {
		t.Errorf("reason %q, want a deadline shed", reason)
	}
	if v := metricValue(t, reg, "wire_deadline_expired_total"); v != 1 {
		t.Errorf("deadline_expired = %v, want 1", v)
	}

	// A budgeted-but-live bid quotes normally, and the award is honored
	// even if the budget runs out between quote and award: committed work
	// is never refused on expiry.
	live := testBid(2, 1)
	live.Deadline = 60000
	sb, ok, err := c.Propose(live)
	if err != nil || !ok {
		t.Fatalf("live-deadline propose: %v %v", ok, err)
	}
	awarded := live
	awarded.Deadline = -1
	if _, ok, err := c.Award(awarded, sb); err != nil || !ok {
		t.Fatalf("award with spent budget refused: %v %v (awards are committed)", ok, err)
	}
}

// TestHandshakeUnderShed drives the json and binary handshakes against a
// site that is actively shedding: negotiation must complete and the shed
// must come back as a fast priced reject on both codecs.
func TestHandshakeUnderShed(t *testing.T) {
	srv := startServer(t, ServerConfig{Processors: 1, MaxPending: 2})
	c := dialServer(t, srv)
	fillSite(t, c, 3)

	for _, codec := range []string{CodecJSON, CodecBinary} {
		nc, err := DialConfig(srv.Addr(), ClientConfig{Codec: codec})
		if err != nil {
			t.Fatalf("dial with codec %q under shed: %v", codec, err)
		}
		if nc.NegotiatedCodec() != codec {
			t.Fatalf("handshake under shed negotiated %q, want %q", nc.NegotiatedCodec(), codec)
		}
		start := time.Now()
		_, ok, reason, err := nc.ProposeDetail(testBid(60, 1))
		if err != nil {
			t.Fatalf("codec %q: shed must answer, not error: %v", codec, err)
		}
		if ok || !IsShedReason(reason) {
			t.Fatalf("codec %q: ok=%v reason=%q, want a shed reject", codec, ok, reason)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("codec %q: shed reject took %v, want fast", codec, d)
		}
		nc.Close()
	}
}

// --- broker resilience end to end ---

func TestBrokerCircuitOpensAndRecloses(t *testing.T) {
	reg := obs.NewRegistry()
	healthy := startServer(t, ServerConfig{SiteID: "site-good", Processors: 2})
	flaky := startServer(t, ServerConfig{SiteID: "site-flaky", Processors: 2})
	proxy, err := faultconn.NewProxy(flaky.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	b, err := NewBrokerServer("127.0.0.1:0", BrokerConfig{
		SiteAddrs:       []string{healthy.Addr(), proxy.Addr()},
		RequestTimeout:  200 * time.Millisecond,
		Retries:         1,
		Backoff:         5 * time.Millisecond,
		CircuitFailures: 3,
		CircuitCooldown: 100 * time.Millisecond,
		HedgeDelay:      -1, // isolate the breaker from hedging
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	c := dialBroker(t, b)

	for i := 1; i <= 3; i++ {
		if _, ok, err := c.Propose(testBid(task.ID(i), 1)); err != nil || !ok {
			t.Fatalf("warmup propose %d: %v %v", i, ok, err)
		}
	}

	proxy.SetPartition(true)
	flakySite := b.sites[1]
	deadline := time.Now().Add(10 * time.Second)
	id := task.ID(100)
	for flakySite.health.snapshotState() != circuitOpen {
		if time.Now().After(deadline) {
			t.Fatal("circuit never opened against the partitioned site")
		}
		// The healthy site keeps the fleet serving while the dead one fails.
		if _, ok, err := c.Propose(testBid(id, 1)); err != nil || !ok {
			t.Fatalf("propose during partition: %v %v", ok, err)
		}
		id++
	}

	// While open, exchanges skip the dead site entirely and stay fast.
	start := time.Now()
	if _, ok, err := c.Propose(testBid(id, 1)); err != nil || !ok {
		t.Fatalf("propose with open circuit: %v %v", ok, err)
	}
	if d := time.Since(start); d > 150*time.Millisecond {
		t.Errorf("exchange with open circuit took %v, want the dead site skipped", d)
	}
	id++

	proxy.SetPartition(false)
	deadline = time.Now().Add(10 * time.Second)
	for flakySite.health.snapshotState() != circuitClosed {
		if time.Now().After(deadline) {
			t.Fatal("circuit never reclosed after the partition healed")
		}
		time.Sleep(20 * time.Millisecond) // let the cooldown elapse for a probe
		if _, ok, err := c.Propose(testBid(id, 1)); err != nil || !ok {
			t.Fatalf("propose during recovery: %v %v", ok, err)
		}
		id++
	}
	if v := metricValue(t, reg, "broker_circuit_transitions_total"); v < 2 {
		t.Errorf("circuit transitions = %v, want at least open+closed", v)
	}
}

// TestBrokerHedgesStalledSite wedges the primary site lane mid-exchange
// and checks the hedge lane answers: the in-flight request is blackholed,
// the blackhole lifts before the hedge fires, and the second lane's fresh
// connection wins well inside the request timeout.
func TestBrokerHedgesStalledSite(t *testing.T) {
	reg := obs.NewRegistry()
	site := startServer(t, ServerConfig{Processors: 2})
	proxy, err := faultconn.NewProxy(site.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	b, err := NewBrokerServer("127.0.0.1:0", BrokerConfig{
		SiteAddrs:      []string{proxy.Addr()},
		RequestTimeout: 5 * time.Second,
		Retries:        -1,
		HedgeDelay:     150 * time.Millisecond,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	c := dialBroker(t, b)

	if _, ok, err := c.Propose(testBid(1, 1)); err != nil || !ok {
		t.Fatalf("warmup propose: %v %v", ok, err)
	}

	proxy.SetBlackhole(true)
	go func() {
		// Lift the blackhole after the primary's request has been swallowed
		// but before the hedge dials its fresh connection.
		time.Sleep(75 * time.Millisecond)
		proxy.SetBlackhole(false)
	}()

	start := time.Now()
	_, ok, err := c.Propose(testBid(2, 1))
	elapsed := time.Since(start)
	if err != nil || !ok {
		t.Fatalf("hedged propose: %v %v", ok, err)
	}
	if elapsed >= 5*time.Second {
		t.Errorf("hedged propose took %v, want well under the request timeout", elapsed)
	}
	if v := metricValue(t, reg, "broker_hedge_total"); v < 1 {
		t.Errorf("broker_hedge_total = %v, want >= 1", v)
	}
}

func TestBrokerParksAndRecoversSettlement(t *testing.T) {
	reg := obs.NewRegistry()
	site := startServer(t, ServerConfig{Processors: 1, TimeScale: time.Millisecond})
	b, err := NewBrokerServer("127.0.0.1:0", BrokerConfig{
		SiteAddrs:         []string{site.Addr()},
		ParkedSettlements: 1,
		Metrics:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })

	// Two contracts whose owner disconnects before settlement: with a
	// one-slot ring the first parked settlement is evicted by the second.
	owner, err := Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	bids := []market.Bid{testBid(1, 200), testBid(2, 200)} // ~200ms each
	for _, bid := range bids {
		sb, ok, err := owner.Propose(bid)
		if err != nil || !ok {
			t.Fatalf("propose %d: %v %v", bid.TaskID, ok, err)
		}
		if _, ok, err := owner.Award(bid, sb); err != nil || !ok {
			t.Fatalf("award %d: %v %v", bid.TaskID, ok, err)
		}
	}
	owner.Close() // both settlements will find no owner

	deadline := time.Now().Add(10 * time.Second)
	for metricValue(t, reg, "broker_parked_evicted_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("settlements never parked (or the ring never overflowed)")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if v := metricValue(t, reg, "broker_parked_settlements"); v != 1 {
		t.Errorf("parked gauge = %v, want 1 (ring bound)", v)
	}

	// A reconnecting owner recovers the surviving settlement by query.
	back := dialBroker(t, b)
	st, err := back.Query(2)
	if err != nil {
		t.Fatalf("query parked settlement: %v", err)
	}
	if st.State != ContractSettled {
		t.Fatalf("recovered state = %q, want settled", st.State)
	}
	if v := metricValue(t, reg, "broker_parked_recovered_total"); v != 1 {
		t.Errorf("parked_recovered = %v, want 1", v)
	}
	if v := metricValue(t, reg, "broker_parked_settlements"); v != 0 {
		t.Errorf("parked gauge after recovery = %v, want 0", v)
	}
	// The evicted settlement is gone from the ring; the site still knows.
	st, err = back.Query(1)
	if err != nil {
		t.Fatalf("query evicted settlement: %v", err)
	}
	if st.State != ContractSettled {
		t.Errorf("evicted contract resolved to %q via site poll, want settled", st.State)
	}
}

func TestBrokerRejectsSpentDeadline(t *testing.T) {
	reg := obs.NewRegistry()
	site := startServer(t, ServerConfig{})
	b, err := NewBrokerServer("127.0.0.1:0", BrokerConfig{SiteAddrs: []string{site.Addr()}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	c := dialBroker(t, b)

	spent := testBid(1, 1)
	spent.Deadline = -5
	_, ok, reason, err := c.ProposeDetail(spent)
	if err != nil || ok {
		t.Fatalf("spent-deadline bid through broker: ok=%v err=%v", ok, err)
	}
	if !IsShedReason(reason) {
		t.Errorf("broker reject reason %q does not mark a shed", reason)
	}
	if v := metricValue(t, reg, "wire_deadline_expired_total"); v != 1 {
		t.Errorf("broker deadline_expired = %v, want 1", v)
	}

	// A generous budget passes through the whole chain.
	live := testBid(2, 1)
	live.Deadline = 60000
	if _, ok, err := c.Propose(live); err != nil || !ok {
		t.Fatalf("budgeted bid through broker: %v %v", ok, err)
	}
}
