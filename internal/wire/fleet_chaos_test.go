package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/task"
	"repro/internal/wire/faultconn"
)

// metricSum is metricValue without the must-exist check: a family with no
// samples yet reads as zero.
func metricSum(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	sum := 0.0
	for sample, v := range promSamples(t, reg) {
		if sample == name || strings.HasPrefix(sample, name+"{") {
			sum += v
		}
	}
	return sum
}

func p99(durs []time.Duration) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(float64(len(s)-1)*0.99)]
}

// TestFleetChaos is the multi-site chaos harness (DESIGN.md §15): four real
// sites behind a broker, with faultconn proxies killing one site's links,
// blackholing a second, and slowing a third mid-run. It asserts the
// overload-safe fleet invariants: every submitted bid is accounted for
// (settled + defaulted + shed + refused, zero unknowns), dead sites' circuit
// breakers open and re-close around the fault window, the fleet keeps
// placing work throughout, and steady-chaos quote latency stays bounded.
//
// Set FLEET_METRICS_DIR to export per-site /metrics scrapes and the
// broker's flight-recorder dump as files (the CI chaos job uploads them).
func TestFleetChaos(t *testing.T) {
	const nSites = 4
	var (
		sites   []*Server
		regs    []*obs.Registry
		proxies []*faultconn.Proxy
		addrs   []string
	)
	for i := 0; i < nSites; i++ {
		reg := obs.NewRegistry()
		srv := startServer(t, ServerConfig{
			SiteID:     "site-" + string(rune('a'+i)),
			Processors: 2,
			MaxPending: 4,
			TimeScale:  time.Millisecond,
			Metrics:    reg,
		})
		p, err := faultconn.NewProxy(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		sites = append(sites, srv)
		regs = append(regs, reg)
		proxies = append(proxies, p)
		addrs = append(addrs, p.Addr())
	}

	brokerReg := obs.NewRegistry()
	flight := obs.NewFlight(obs.FlightConfig{Registry: brokerReg, Interval: 50 * time.Millisecond})
	defer flight.Stop()
	b, err := NewBrokerServer("127.0.0.1:0", BrokerConfig{
		SiteAddrs:       addrs,
		RequestTimeout:  250 * time.Millisecond,
		Retries:         1,
		Backoff:         5 * time.Millisecond,
		CircuitFailures: 3,
		CircuitCooldown: 100 * time.Millisecond,
		Metrics:         brokerReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })

	c, err := DialConfig(b.Addr(), ClientConfig{RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// Outcome accounting. Settlement pushes land on the client conn's read
	// loop; everything still open after the run is reconciled by query.
	var (
		settledCh          = make(chan task.ID, 1024)
		open               = map[task.ID]bool{}
		submitted          int
		shed, refused      int
		settled, defaulted int
	)
	c.SetOnSettled(func(e Envelope) { settledCh <- e.TaskID })
	drainSettled := func() {
		for {
			select {
			case id := <-settledCh:
				if open[id] {
					delete(open, id)
					settled++
				}
			default:
				return
			}
		}
	}

	// submit runs one full bid+award exchange and classifies the outcome;
	// it returns the quote latency.
	submit := func(id task.ID, runtime float64, budgetMS float64) time.Duration {
		t.Helper()
		submitted++
		bid := testBid(id, runtime)
		bid.Deadline = budgetMS
		start := time.Now()
		sb, ok, reason, err := c.ProposeDetail(bid)
		lat := time.Since(start)
		if err != nil {
			refused++
			return lat
		}
		if !ok {
			if IsShedReason(reason) {
				shed++
			} else {
				refused++
			}
			return lat
		}
		_, ok, areason, err := c.AwardDetail(bid, sb)
		if err != nil {
			refused++
			return lat
		}
		if !ok {
			if IsShedReason(areason) {
				shed++
			} else {
				refused++
			}
			return lat
		}
		open[id] = true
		return lat
	}

	id := task.ID(1)
	var baseline []time.Duration

	// Phase A: healthy fleet, 40 tasks — the latency baseline.
	for i := 0; i < 40; i++ {
		baseline = append(baseline, submit(id, 30, 10000))
		drainSettled()
		id++
	}
	for i, bs := range b.sites {
		if st := bs.health.snapshotState(); st != circuitClosed {
			t.Fatalf("healthy phase: site %d circuit = %d, want closed", i, st)
		}
	}

	// Phase B: chaos. Site a's links are killed and new connections refused
	// (a dead host), site b answers nothing (wedged host), site c crawls.
	proxies[0].SetPartition(true)
	proxies[1].SetBlackhole(true)
	proxies[2].SetDelay(10 * time.Millisecond)

	deadline := time.Now().Add(15 * time.Second)
	for b.sites[0].health.snapshotState() != circuitOpen || b.sites[1].health.snapshotState() != circuitOpen {
		if time.Now().After(deadline) {
			t.Fatalf("circuits never opened: dead=%d blackholed=%d",
				b.sites[0].health.snapshotState(), b.sites[1].health.snapshotState())
		}
		submit(id, 30, 10000)
		drainSettled()
		id++
	}

	// Steady chaos: breakers have isolated the dead sites; the remaining
	// fleet must keep quoting, and fast. A handful of bids ride with tight
	// deadline budgets — refusing them (spent in transit) is correct and
	// they stay accounted.
	var chaosLat []time.Duration
	chaosPlaced := 0
	before := len(open) + settled
	for i := 0; i < 40; i++ {
		budget := 10000.0
		if i%10 == 9 {
			budget = 0.05 // ~50µs: often spent before the site sees it
		}
		chaosLat = append(chaosLat, submit(id, 30, budget))
		drainSettled()
		id++
	}
	chaosPlaced = len(open) + settled - before
	if chaosPlaced == 0 {
		t.Error("fleet placed nothing during steady chaos: degradation is not smooth")
	}

	// Phase C: heal everything — the "restart" of the dead site — and
	// expect every breaker to close again within the probe cadence.
	proxies[0].SetPartition(false)
	proxies[1].SetBlackhole(false)
	proxies[2].SetDelay(0)
	deadline = time.Now().Add(15 * time.Second)
	for anyOpen := true; anyOpen; {
		anyOpen = false
		for _, bs := range b.sites {
			if bs.health.snapshotState() != circuitClosed {
				anyOpen = true
			}
		}
		if !anyOpen {
			break
		}
		if time.Now().After(deadline) {
			states := make([]int, 0, nSites)
			for _, bs := range b.sites {
				states = append(states, bs.health.snapshotState())
			}
			t.Fatalf("circuits never reclosed after heal: %v", states)
		}
		time.Sleep(20 * time.Millisecond) // let cooldowns elapse between probes
		submit(id, 30, 10000)
		drainSettled()
		id++
	}

	// Overload burst: long tasks past the fleet's book capacity, so the
	// value-aware valve must shed — every shed a fast priced reject.
	for i := 0; i < 60; i++ {
		submit(id, 2000, 60000)
		drainSettled()
		id++
	}

	// Drain: first the settlement pushes, then reconcile stragglers by
	// query (contracts whose push was severed by the partition resolve
	// here — that is the zero-lost-contracts path).
	unknown := 0
	deadline = time.Now().Add(60 * time.Second)
	for len(open) > 0 && time.Now().Before(deadline) {
		drainSettled()
		for tid := range open {
			st, err := c.Query(tid)
			if err != nil {
				continue
			}
			// ContractUnknown is retried until the deadline: the broker may
			// still be redialing the holder site just after the heal.
			switch st.State {
			case ContractSettled:
				delete(open, tid)
				settled++
			case ContractDefaulted:
				delete(open, tid)
				defaulted++
			}
		}
		if len(open) > 0 {
			time.Sleep(200 * time.Millisecond)
		}
	}
	if len(open) > 0 {
		direct := make([]*SiteClient, nSites)
		for i, srv := range sites {
			if dc, derr := Dial(srv.Addr()); derr == nil {
				direct[i] = dc
				defer dc.Close()
			}
		}
		for tid := range open {
			st, err := c.Query(tid)
			t.Logf("stuck contract %d: broker state=%q err=%v", tid, st.State, err)
			for i, dc := range direct {
				if dc == nil {
					continue
				}
				dst, derr := dc.Query(tid)
				t.Logf("  site %d: state=%q err=%v", i, dst.State, derr)
			}
		}
		t.Errorf("%d contracts never resolved before the drain deadline", len(open))
		unknown += len(open)
	}

	// The books must balance: every bid ends in exactly one bucket.
	if got := settled + defaulted + shed + refused; got != submitted || unknown != 0 {
		t.Errorf("accounting: settled %d + defaulted %d + shed %d + refused %d = %d, want %d submitted (unknown %d)",
			settled, defaulted, shed, refused, got, submitted, unknown)
	}
	t.Logf("fleet chaos: submitted %d settled %d defaulted %d shed %d refused %d (chaos placed %d)",
		submitted, settled, defaulted, shed, refused, chaosPlaced)

	// Shed accounting: every client-visible shed traces back to valve
	// counters on the sites (or the broker's own deadline refusals).
	siteSheds := 0.0
	for _, reg := range regs {
		siteSheds += metricSum(t, reg, "site_shed_total")
	}
	brokerSheds := metricSum(t, brokerReg, "wire_deadline_expired_total")
	if shed > 0 && siteSheds+brokerSheds == 0 {
		t.Errorf("client saw %d sheds but no shed counter moved", shed)
	}

	// Steady-chaos quote latency: breakers + hedging keep the tail inside
	// a few request timeouts of the healthy baseline even with half the
	// fleet dark (the bound covers half-open probe windows).
	basep99, chaosp99 := p99(baseline), p99(chaosLat)
	limit := 3 * basep99
	if floor := 750 * time.Millisecond; limit < floor {
		limit = floor
	}
	if chaosp99 > limit {
		t.Errorf("steady-chaos p99 quote latency %v exceeds %v (healthy p99 %v)", chaosp99, limit, basep99)
	}

	// Breaker bookkeeping on the scrape: the dead site transitioned at
	// least open -> half-open -> closed.
	if v := metricSum(t, brokerReg, "broker_circuit_transitions_total"); v < 3 {
		t.Errorf("broker_circuit_transitions_total = %v, want >= 3", v)
	}
	for _, srv := range sites {
		checkBook(t, srv)
	}

	if dir := os.Getenv("FLEET_METRICS_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatalf("artifacts dir: %v", err)
		}
		writeScrape := func(name string, reg *obs.Registry) {
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Errorf("scrape %s: %v", name, err)
				return
			}
			if err := os.WriteFile(filepath.Join(dir, name), []byte(sb.String()), 0o644); err != nil {
				t.Errorf("write %s: %v", name, err)
			}
		}
		for i, reg := range regs {
			writeScrape(fmt.Sprintf("site-%c-metrics.txt", 'a'+i), reg)
		}
		writeScrape("broker-metrics.txt", brokerReg)
		if err := obs.WriteFlightDump(filepath.Join(dir, "broker-flight.json"), flight, nil); err != nil {
			t.Errorf("flight dump: %v", err)
		}
	}
}

// TestFleetRoutedChaos is the §16 extension of the chaos harness: the same
// four faulty sites, now behind TWO independent digest-routed top-k
// brokers, each serving its own client. Killing a routed-to site mid-run
// must trip its breaker on both brokers, expire its digest, and
// redistribute routing to the surviving sites — and at the end every bid
// is accounted: settled + defaulted + shed + refused == submitted with
// zero unknowns.
func TestFleetRoutedChaos(t *testing.T) {
	const nSites = 4
	var (
		sites   []*Server
		proxies []*faultconn.Proxy
		addrs   []string
	)
	for i := 0; i < nSites; i++ {
		srv := startServer(t, ServerConfig{
			SiteID:     "site-" + string(rune('a'+i)),
			Processors: 2,
			MaxPending: 8,
			TimeScale:  time.Millisecond,
		})
		p, err := faultconn.NewProxy(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		sites = append(sites, srv)
		proxies = append(proxies, p)
		addrs = append(addrs, p.Addr())
	}

	// Two brokers over the same fleet. The digest cadence is slow enough
	// (150ms, TTL 450ms) that a killed site stays ranked — and keeps
	// drawing doomed quotes — long enough to trip its breaker before the
	// stale digest drops it from the candidate set.
	mkBroker := func(reg *obs.Registry) *BrokerServer {
		b, err := NewBrokerServer("127.0.0.1:0", BrokerConfig{
			SiteAddrs:       addrs,
			Route:           RouteTopK,
			TopK:            2,
			DigestInterval:  150 * time.Millisecond,
			RequestTimeout:  250 * time.Millisecond,
			Retries:         1,
			Backoff:         5 * time.Millisecond,
			CircuitFailures: 3,
			CircuitCooldown: 100 * time.Millisecond,
			Metrics:         reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	}
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	bA, bB := mkBroker(regA), mkBroker(regB)
	waitDigestsFresh(t, bA)
	waitDigestsFresh(t, bB)

	dialC := func(b *BrokerServer) *SiteClient {
		c, err := DialConfig(b.Addr(), ClientConfig{RequestTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	cA, cB := dialC(bA), dialC(bB)

	var (
		settledCh          = make(chan task.ID, 2048)
		open               = map[task.ID]bool{}
		submitted          int
		shed, refused      int
		settled, defaulted int
	)
	onSettled := func(e Envelope) { settledCh <- e.TaskID }
	cA.SetOnSettled(onSettled)
	cB.SetOnSettled(onSettled)
	drainSettled := func() {
		for {
			select {
			case id := <-settledCh:
				if open[id] {
					delete(open, id)
					settled++
				}
			default:
				return
			}
		}
	}

	// submit alternates clients, so each broker carries half the bids, and
	// spreads them over 16 workload identities.
	submit := func(id task.ID, runtime float64) {
		t.Helper()
		submitted++
		c := cA
		if id%2 == 0 {
			c = cB
		}
		bid := testBid(id, runtime)
		bid.Cohort = "routed"
		bid.Client = int(id%16) + 1
		sb, ok, reason, err := c.ProposeDetail(bid)
		if err != nil {
			refused++
			return
		}
		if !ok {
			if IsShedReason(reason) {
				shed++
			} else {
				refused++
			}
			return
		}
		if _, ok, areason, err := c.AwardDetail(bid, sb); err != nil {
			refused++
		} else if !ok {
			if IsShedReason(areason) {
				shed++
			} else {
				refused++
			}
		} else {
			open[id] = true
		}
	}

	id := task.ID(1)

	// Phase A: healthy fleet.
	for i := 0; i < 40; i++ {
		submit(id, 30)
		drainSettled()
		id++
	}
	for _, b := range []*BrokerServer{bA, bB} {
		for i, bs := range b.sites {
			if st := bs.health.snapshotState(); st != circuitClosed {
				t.Fatalf("healthy phase: site %d circuit = %d, want closed", i, st)
			}
		}
	}

	// Phase B: kill a routed-to site. With the whole fleet near-idle the
	// digest scores tie and the stable ranking quotes the first two sites,
	// so site 0 is drawing quotes when its links die.
	proxies[0].SetPartition(true)
	deadline := time.Now().Add(20 * time.Second)
	for bA.sites[0].health.snapshotState() != circuitOpen || bB.sites[0].health.snapshotState() != circuitOpen {
		if time.Now().After(deadline) {
			t.Fatalf("killed site's circuits never opened: A=%d B=%d",
				bA.sites[0].health.snapshotState(), bB.sites[0].health.snapshotState())
		}
		submit(id, 30)
		drainSettled()
		id++
	}

	// The dead site's digest must go stale on both brokers (no pushes can
	// arrive through a partitioned proxy), dropping it from the ranking.
	ttl := digestTTL(bA.cfg.digestInterval())
	deadline = time.Now().Add(5 * time.Second)
	for bA.sites[0].digestFresh(time.Now(), ttl) || bB.sites[0].digestFresh(time.Now(), ttl) {
		if time.Now().After(deadline) {
			t.Fatal("killed site's digest never went stale")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Steady chaos: routing has redistributed; the fleet keeps placing.
	before := len(open) + settled
	for i := 0; i < 40; i++ {
		submit(id, 30)
		drainSettled()
		id++
		time.Sleep(5 * time.Millisecond)
	}
	if placed := len(open) + settled - before; placed == 0 {
		t.Error("fleet placed nothing after the routed-to site died")
	}

	// Phase C: heal. Probes must reclose the breakers, and the digest
	// subscription must survive the lane redial and refresh the table.
	proxies[0].SetPartition(false)
	deadline = time.Now().Add(20 * time.Second)
	for bA.sites[0].health.snapshotState() != circuitClosed || bB.sites[0].health.snapshotState() != circuitClosed {
		if time.Now().After(deadline) {
			t.Fatalf("killed site's circuits never reclosed: A=%d B=%d",
				bA.sites[0].health.snapshotState(), bB.sites[0].health.snapshotState())
		}
		time.Sleep(20 * time.Millisecond)
		submit(id, 30)
		drainSettled()
		id++
	}
	waitDigestsFresh(t, bA)
	waitDigestsFresh(t, bB)

	// Drain and reconcile by query through the submitting client's broker.
	deadline = time.Now().Add(60 * time.Second)
	for len(open) > 0 && time.Now().Before(deadline) {
		drainSettled()
		for tid := range open {
			c := cA
			if tid%2 == 0 {
				c = cB
			}
			st, err := c.Query(tid)
			if err != nil {
				continue
			}
			switch st.State {
			case ContractSettled:
				delete(open, tid)
				settled++
			case ContractDefaulted:
				delete(open, tid)
				defaulted++
			}
		}
		if len(open) > 0 {
			time.Sleep(200 * time.Millisecond)
		}
	}
	unknown := len(open)

	if got := settled + defaulted + shed + refused; got != submitted || unknown != 0 {
		t.Errorf("accounting: settled %d + defaulted %d + shed %d + refused %d = %d, want %d submitted (unknown %d)",
			settled, defaulted, shed, refused, got, submitted, unknown)
	}

	// Top-k routing was live, not permanently falling back to fan-out.
	routedBids := metricSum(t, regA, "broker_route_candidates_count") + metricSum(t, regB, "broker_route_candidates_count")
	fallbacks := metricSum(t, regA, "broker_route_fallback_total") + metricSum(t, regB, "broker_route_fallback_total")
	if routedBids > 0 && fallbacks >= routedBids {
		t.Errorf("every routed bid fell back to fan-out (%v of %v)", fallbacks, routedBids)
	}
	t.Logf("routed chaos: submitted %d settled %d defaulted %d shed %d refused %d fallbacks %v",
		submitted, settled, defaulted, shed, refused, fallbacks)
}
