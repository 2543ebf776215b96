package wire

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/market"
	"repro/internal/task"
)

// TestDigestSubscribePush covers the site side of the digest protocol:
// the subscription ack echoes the clamped cadence, pushes arrive on the
// OnDigest callback without disturbing request/reply traffic, and the
// digest reflects the site's book.
func TestDigestSubscribePush(t *testing.T) {
	srv := startServer(t, ServerConfig{Processors: 2})
	c := dialServer(t, srv)

	digests := make(chan Envelope, 64)
	c.SetOnDigest(func(e Envelope) { digests <- e })
	if err := c.SubscribeDigests(20 * time.Millisecond); err != nil {
		t.Fatalf("subscribe: %v", err)
	}

	// Digest pushes and ordinary exchanges share the connection. The task
	// runs for 5000 sim units (~500ms wall at the test timescale), long
	// enough for several digests to catch it on a processor.
	bid := testBid(1, 5000)
	sb, ok, err := c.Propose(bid)
	if err != nil || !ok {
		t.Fatalf("propose under subscription: %v %v", ok, err)
	}
	if _, ok, err := c.Award(bid, sb); err != nil || !ok {
		t.Fatalf("award under subscription: %v %v", ok, err)
	}

	deadline := time.After(5 * time.Second)
	for {
		select {
		case d := <-digests:
			if d.SiteID != "test-site" {
				t.Fatalf("digest site = %q", d.SiteID)
			}
			if d.Procs != 2 {
				t.Fatalf("digest procs = %d, want 2", d.Procs)
			}
			if d.Running > 0 && d.Backlog > 0 {
				return // the digest saw the awarded task running
			}
		case <-deadline:
			t.Fatal("no digest ever showed the awarded task running with a backlog")
		}
	}
}

// TestDigestIntervalClamped pins the cadence clamp: a too-fast request is
// raised to the floor and the ack reports the effective interval.
func TestDigestIntervalClamped(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	c := dialServer(t, srv)
	reply, err := c.roundTrip(Envelope{Type: TypeDigestSub, Interval: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeDigestSub {
		t.Fatalf("ack type = %q", reply.Type)
	}
	wantMS := float64(minDigestInterval) / float64(time.Millisecond)
	if reply.Interval != wantMS {
		t.Fatalf("ack interval = %vms, want clamp to %vms", reply.Interval, wantMS)
	}
}

// startRouteTopology starts one fleet of idle sites and two brokers over
// the same sites: one full fan-out, one top-k with fast digests.
func startRouteTopology(t *testing.T, nSites, k int) (fanout, topk *BrokerServer, fc, tc *SiteClient) {
	t.Helper()
	var addrs []string
	for i := 0; i < nSites; i++ {
		srv := startServer(t, ServerConfig{
			SiteID:     "site-" + string(rune('a'+i)),
			Processors: 2,
		})
		addrs = append(addrs, srv.Addr())
	}
	mk := func(cfg BrokerConfig) *BrokerServer {
		cfg.SiteAddrs = addrs
		b, err := NewBrokerServer("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	}
	fanout = mk(BrokerConfig{Route: RouteFanout})
	topk = mk(BrokerConfig{Route: RouteTopK, TopK: k, DigestInterval: 20 * time.Millisecond})
	return fanout, topk, dialBroker(t, fanout), dialBroker(t, topk)
}

// waitDigestsFresh blocks until every site's digest is fresh on b.
func waitDigestsFresh(t *testing.T, b *BrokerServer) {
	t.Helper()
	ttl := digestTTL(b.cfg.digestInterval())
	deadline := time.Now().Add(5 * time.Second)
	for {
		fresh := 0
		for _, bs := range b.sites {
			if bs.digestFresh(time.Now(), ttl) {
				fresh++
			}
		}
		if fresh == len(b.sites) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d digests fresh", fresh, len(b.sites))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouteTopKDifferential is the differential oracle from DESIGN.md §16:
// with k >= fleet size and every digest fresh, top-k routing quotes
// exactly fan-out's candidate set in fan-out's order, and the awarded
// prices agree bid for bid. (The winning site among equal-price offers is
// tie-broken on quote completion, which carries per-exchange clock noise
// even between two fan-out brokers — so the pinned quantities are the
// candidate set and the price, not the tie-break.)
func TestRouteTopKDifferential(t *testing.T) {
	fanout, topk, fc, tc := startRouteTopology(t, 3, 8)
	waitDigestsFresh(t, topk)

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 30; i++ {
		runtime := 1 + rng.Float64()*9
		bid := market.Bid{
			TaskID:  task.ID(1000 + i),
			Runtime: runtime,
			Value:   runtime * (5 + rng.Float64()*10),
			Decay:   rng.Float64(),
			Bound:   math.Inf(1),
		}

		// The routing decision itself: identical candidate sets, in order.
		fcands := fanout.routeCandidates(bid)
		tcands := topk.routeCandidates(bid)
		if len(fcands) != len(tcands) {
			t.Fatalf("bid %d: fanout quotes %d sites, topk %d", i, len(fcands), len(tcands))
		}
		for j := range fcands {
			if fcands[j].bs.addr != tcands[j].bs.addr {
				t.Fatalf("bid %d cand %d: fanout %s, topk %s", i, j, fcands[j].bs.addr, tcands[j].bs.addr)
			}
		}

		// The negotiated outcome: same accept/decline, same price.
		fsb, fok, ferr := fc.Propose(bid)
		tsb, tok, terr := tc.Propose(bid)
		if ferr != nil || terr != nil {
			t.Fatalf("bid %d: fanout err=%v topk err=%v", i, ferr, terr)
		}
		if fok != tok {
			t.Fatalf("bid %d: fanout ok=%v topk ok=%v", i, fok, tok)
		}
		if fok && fsb.ExpectedPrice != tsb.ExpectedPrice {
			t.Fatalf("bid %d: fanout price %v, topk price %v", i, fsb.ExpectedPrice, tsb.ExpectedPrice)
		}
	}
}

// newRouteTestBroker builds a broker skeleton around synthetic sites —
// no network, no lanes — for exercising routeCandidates directly.
func newRouteTestBroker(nSites, k int) *BrokerServer {
	b := &BrokerServer{cfg: BrokerConfig{Route: RouteTopK, TopK: k, DigestInterval: 50 * time.Millisecond}}
	for i := 0; i < nSites; i++ {
		addr := fmt.Sprintf("site-%d", i)
		// An hour's cooldown keeps an opened breaker open for the whole
		// test: no half-open probes sneak into the candidate set.
		b.sites = append(b.sites, &brokerSite{
			addr:   addr,
			health: newSiteHealth(addr, 3, time.Hour, 0.25, &b.m),
		})
	}
	return b
}

func tripBreaker(bs *brokerSite) {
	for i := 0; i < 3; i++ {
		bs.health.onResult(false, 0, false)
	}
}

// TestRouteTopKSelectsBest pins the ranking: with every digest fresh, the
// k sites with the best estimated net yield (lowest backlog, lowest
// floor) are exactly the candidate set.
func TestRouteTopKSelectsBest(t *testing.T) {
	b := newRouteTestBroker(5, 2)
	now := time.Now()
	for i, bs := range b.sites {
		bs.digest = Envelope{Type: TypeDigest, Backlog: float64(10 * i), Floor: 0}
		bs.digestAt = now
	}
	// Make the middle site's floor price it out despite a modest backlog.
	b.sites[1].digest.Floor = 1e6

	cands := b.routeCandidates(market.Bid{TaskID: 1, Runtime: 5, Value: 100, Decay: 1, Bound: math.Inf(1)})
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2", len(cands))
	}
	if cands[0].bs.addr != "site-0" || cands[1].bs.addr != "site-2" {
		t.Fatalf("candidates = %s, %s; want site-0, site-2", cands[0].bs.addr, cands[1].bs.addr)
	}
}

// TestRouteTopKFallback pins the safety valve: with fewer than k fresh
// digests the bid quotes every breaker-admitted site, exactly as fan-out.
func TestRouteTopKFallback(t *testing.T) {
	b := newRouteTestBroker(4, 3)
	// Only two fresh digests: the other two sites have none at all.
	now := time.Now()
	b.sites[0].digestAt, b.sites[0].digest = now, Envelope{Backlog: 1}
	b.sites[1].digestAt, b.sites[1].digest = now, Envelope{Backlog: 2}

	cands := b.routeCandidates(market.Bid{TaskID: 1, Runtime: 1, Value: 10, Bound: math.Inf(1)})
	if len(cands) != 4 {
		t.Fatalf("fallback candidates = %d, want all 4", len(cands))
	}
}

// TestRouteTopKProperty is the routing invariant, driven by seeded random
// fleets: top-k routing never selects a site whose breaker is open, and
// never selects a site with a stale digest except through the accounted
// full-fan-out fallback (fewer than k fresh digests). When every breaker
// is open, all sites come back as probes — the starvation escape hatch.
func TestRouteTopKProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		k := 1 + rng.Intn(5)
		b := newRouteTestBroker(n, k)
		ttl := digestTTL(b.cfg.digestInterval())
		now := time.Now()

		open := make(map[string]bool)
		fresh := make(map[string]bool)
		admitted := 0
		for _, bs := range b.sites {
			if rng.Float64() < 0.3 {
				tripBreaker(bs)
				open[bs.addr] = true
			} else {
				admitted++
			}
			switch r := rng.Float64(); {
			case r < 0.2: // no digest at all
			case r < 0.5: // stale digest
				bs.digest = Envelope{Backlog: rng.Float64() * 100}
				bs.digestAt = now.Add(-2 * ttl)
			default: // fresh digest
				bs.digest = Envelope{Backlog: rng.Float64() * 100, Floor: rng.Float64() * 10}
				bs.digestAt = now.Add(-ttl / 10)
				fresh[bs.addr] = true
			}
		}

		bid := market.Bid{TaskID: task.ID(trial), Runtime: 1 + rng.Float64()*10,
			Value: rng.Float64() * 100, Decay: rng.Float64(), Bound: math.Inf(1)}
		cands := b.routeCandidates(bid)

		if admitted == 0 {
			if len(cands) != n {
				t.Fatalf("trial %d: all-open fleet returned %d probes, want %d", trial, len(cands), n)
			}
			for _, c := range cands {
				if !c.probe {
					t.Fatalf("trial %d: all-open fleet returned non-probe %s", trial, c.bs.addr)
				}
			}
			continue
		}

		freshAdmitted := 0
		for _, bs := range b.sites {
			if !open[bs.addr] && fresh[bs.addr] {
				freshAdmitted++
			}
		}
		fellBack := freshAdmitted < k && freshAdmitted < admitted
		for _, c := range cands {
			if open[c.bs.addr] {
				t.Fatalf("trial %d: open-breaker site %s selected", trial, c.bs.addr)
			}
			if !fellBack && !c.probe && !fresh[c.bs.addr] {
				t.Fatalf("trial %d: stale-digest site %s selected outside fallback", trial, c.bs.addr)
			}
		}
		want := admitted
		if !fellBack && k < admitted {
			want = k
		}
		if len(cands) != want {
			t.Fatalf("trial %d: %d candidates, want %d (admitted=%d freshAdmitted=%d k=%d fellBack=%v)",
				trial, len(cands), want, admitted, freshAdmitted, k, fellBack)
		}
	}
}
