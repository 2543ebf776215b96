package wire

import (
	"errors"
	"sort"
	"time"

	"repro/internal/market"
)

// This file is the digest-driven top-k routing layer (DESIGN.md §16).
//
// Site side: every connection may subscribe to periodic load digests —
// a compact snapshot of the site's book (queue depth, running count,
// backlog horizon, shed floor, shed state) pushed as TypeDigest frames on
// a jittered cadence. The digest is assembled from the lock-free quote
// snapshots and the overload valve's atomics, so pushing one costs the
// request path nothing.
//
// Broker side: the broker subscribes each site's primary lane and keeps a
// staleness-aware per-site digest table. In top-k mode each bid quotes
// only the k sites whose digests promise the best net yield; a digest
// older than its TTL decays out of the ranking, and with fewer than k
// fresh digests the bid falls back to full fan-out.

// Digest cadence bounds. The site clamps a subscriber's requested interval
// into [minDigestInterval, maxDigestInterval] and echoes the effective
// value in the subscription ack.
const (
	defaultDigestInterval = 250 * time.Millisecond
	minDigestInterval     = 5 * time.Millisecond
	maxDigestInterval     = time.Minute
)

// digestTTL is how long a digest stays fresh: three push intervals covers
// the jittered gap (at most 1.5T) plus one lost push.
func digestTTL(interval time.Duration) time.Duration { return 3 * interval }

// handleDigestSub answers a digest subscription: clamp the requested
// cadence, replace any pusher already running for the connection, and ack
// with the effective interval. The first digest is pushed immediately, so
// the subscriber's table warms in one round trip.
func (s *Server) handleDigestSub(env Envelope, sc *serverConn) Envelope {
	iv := time.Duration(env.Interval * float64(time.Millisecond))
	if iv <= 0 {
		iv = defaultDigestInterval
	}
	if iv < minDigestInterval {
		iv = minDigestInterval
	}
	if iv > maxDigestInterval {
		iv = maxDigestInterval
	}
	stop := make(chan struct{})
	sc.startDigest(stop)
	s.ep.spawn(func() { s.pushDigests(sc, iv, stop) })
	return Envelope{Type: TypeDigestSub, SiteID: s.cfg.SiteID,
		Interval: float64(iv) / float64(time.Millisecond)}
}

// pushDigests is one connection's digest pusher: an immediate first push,
// then one per jittered interval until the subscription is replaced, the
// connection dies, or the server closes.
func (s *Server) pushDigests(sc *serverConn, interval time.Duration, stop chan struct{}) {
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		if err := sc.send(s.digest(interval)); err != nil {
			return
		}
		s.m.digestPushes.Inc()
		timer.Reset(digestJitter(interval))
	}
}

// digest assembles the site's current load/price digest without taking any
// lock: counts come from the site-wide atomics, the backlog horizon from
// the published quote snapshots, and the floor from the overload valve.
// Backlog is the expected per-processor work horizon in simulation units —
// remaining running time plus queued runtimes, over the processor count —
// which is the waiting-time estimate a router needs to price a placement.
func (s *Server) digest(interval time.Duration) Envelope {
	var backlog float64
	snap, _ := s.mergedSnapshot()
	now := s.now()
	for _, rel := range snap.BusyUntil(now) {
		backlog += rel - now
	}
	for _, t := range snap.Pending {
		backlog += t.Runtime
	}
	if snap.Procs > 0 {
		backlog /= float64(snap.Procs)
	}
	queued := int(s.nQueued.Load())
	// The valve starts shedding by value at half the book cap — the same
	// knee floorAt ramps from — so Shedding advertises "the floor is live".
	shedding := s.shed.maxPending > 0 && 2*queued >= s.shed.maxPending
	return Envelope{
		Type:     TypeDigest,
		SiteID:   s.cfg.SiteID,
		Queue:    queued,
		Running:  int(s.nRunning.Load()),
		Procs:    s.cfg.Processors,
		Backlog:  backlog,
		Floor:    s.shedFloorNow(),
		Shedding: shedding,
		Interval: float64(interval) / float64(time.Millisecond),
	}
}

// --- Broker side ---

// noteDigest books a pushed digest into the site's table slot. The local
// in-flight echo resets: the new digest reflects the site's real book, so
// the broker's own recent placements are no longer estimates.
func (bs *brokerSite) noteDigest(e Envelope) {
	bs.digestMu.Lock()
	bs.digest = e
	bs.digestAt = time.Now()
	bs.inflight = 0
	bs.digestMu.Unlock()
}

// noteRouted echoes a just-awarded task into the site's digest estimate.
// Between pushes the digest is blind to the broker's own placements; a
// burst scored against a frozen table herds onto the momentarily-best
// site and queues it deep. Charging each award's runtime to the estimate
// makes consecutive bids see the backlog they are creating.
func (bs *brokerSite) noteRouted(runtime float64) {
	bs.digestMu.Lock()
	if procs := bs.digest.Procs; procs > 1 {
		runtime /= float64(procs)
	}
	bs.inflight += runtime
	bs.digestMu.Unlock()
}

// digestScore estimates the net yield of placing bid on this site from its
// last digest: value minus decay over the expected wait (the site's
// backlog horizon, plus the broker's own awards since that push, plus the
// task's own runtime) minus the advertised shed floor, all in simulation
// units. The estimate decays toward "unknown" as
// the digest ages: optimism shrinks and pessimism amplifies linearly in
// age/ttl, so a fresh mediocre site outranks a stale good-looking one. ok
// is false when there is no digest or it has aged past the TTL — the site
// drops out of the ranking rather than being routed on lies.
func (bs *brokerSite) digestScore(bid market.Bid, now time.Time, ttl time.Duration) (score float64, ok bool) {
	bs.digestMu.Lock()
	d, at, inflight := bs.digest, bs.digestAt, bs.inflight
	bs.digestMu.Unlock()
	if at.IsZero() {
		return 0, false
	}
	age := now.Sub(at)
	if age >= ttl {
		return 0, false
	}
	est := bid.Value - bid.Decay*(d.Backlog+inflight+bid.Runtime) - d.Floor
	w := float64(age) / float64(ttl)
	if est >= 0 {
		return est * (1 - w), true
	}
	return est * (1 + w), true
}

// digestFresh reports whether the site's digest is younger than ttl.
func (bs *brokerSite) digestFresh(now time.Time, ttl time.Duration) bool {
	bs.digestMu.Lock()
	at := bs.digestAt
	bs.digestMu.Unlock()
	return !at.IsZero() && now.Sub(at) < ttl
}

// routeCand is one site admitted to a bid's quote set.
type routeCand struct {
	bs    *brokerSite
	probe bool
}

// routeCandidates picks the sites to quote for one bid. Breaker admission
// runs first, exactly as fan-out always has: an open breaker is
// unroutable, and when every breaker is open all sites are probed rather
// than starving the fleet. In top-k mode the breaker-admitted non-probe
// sites with fresh digests are ranked by digestScore and only the best k
// quote — half-open probe grants always ride along, because a site that
// is never quoted can never close its breaker. With fewer than k fresh
// digests the bid falls back to full fan-out. The candidate set keeps the
// site-table order, so with k >= fleet size and every digest fresh it is
// exactly fan-out's set, offer for offer — the differential-oracle
// guarantee the route tests pin down.
func (b *BrokerServer) routeCandidates(bid market.Bid) []routeCand {
	admitted := make([]routeCand, 0, len(b.sites))
	for _, bs := range b.sites {
		if ok, probe := bs.health.allow(); ok {
			admitted = append(admitted, routeCand{bs, probe})
		}
	}
	if len(admitted) == 0 {
		for _, bs := range b.sites {
			admitted = append(admitted, routeCand{bs, true})
		}
		return admitted
	}
	if !b.cfg.topkEnabled() {
		return admitted
	}
	now := time.Now()
	ttl := digestTTL(b.cfg.digestInterval())
	k := b.cfg.topK()
	type scored struct {
		i     int // index into admitted
		score float64
	}
	fresh := make([]scored, 0, len(admitted))
	for i, c := range admitted {
		if c.probe {
			continue
		}
		if sc, ok := c.bs.digestScore(bid, now, ttl); ok {
			fresh = append(fresh, scored{i, sc})
		}
	}
	if len(fresh) < k && len(fresh) < len(admitted) {
		b.m.routeFallback.Inc()
		b.m.routeCandidates.Observe(float64(len(admitted)))
		return admitted
	}
	if len(fresh) > k {
		sort.SliceStable(fresh, func(i, j int) bool { return fresh[i].score > fresh[j].score })
		fresh = fresh[:k]
	}
	keep := make(map[int]bool, len(fresh))
	for _, sc := range fresh {
		keep[sc.i] = true
	}
	cands := admitted[:0]
	for i, c := range admitted {
		if c.probe || keep[i] {
			cands = append(cands, c)
		}
	}
	b.m.routeCandidates.Observe(float64(len(cands)))
	return cands
}

// digestLoop keeps the broker's digest table alive: it refreshes the
// per-site age gauges and (re-)subscribes any site whose digests have gone
// missing — the initial subscription, a site restart, and a Redial (which
// drops the per-connection subscription) all recover here.
func (b *BrokerServer) digestLoop() {
	interval := b.cfg.digestInterval()
	tick := interval / 2
	if tick < minDigestInterval {
		tick = minDigestInterval
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		b.refreshDigests()
		select {
		case <-b.stop:
			return
		case <-ticker.C:
		}
	}
}

func (b *BrokerServer) refreshDigests() {
	interval := b.cfg.digestInterval()
	ttl := digestTTL(interval)
	now := time.Now()
	for _, bs := range b.sites {
		bs.digestMu.Lock()
		age := now.Sub(bs.digestAt)
		hasDigest := !bs.digestAt.IsZero()
		needSub := (!hasDigest || age > ttl) && !bs.subInFlight && now.After(bs.nextSubAt)
		if needSub {
			bs.subInFlight = true
		}
		bs.digestMu.Unlock()
		if hasDigest {
			bs.mDigestAge.Set(age.Seconds())
		}
		if needSub {
			// Untracked by the endpoint deliberately: a subscription against a dead
			// site blocks for a full request timeout, and Close must not
			// wait on that. The goroutine only touches the site's own
			// fields, all safe after Close.
			go b.subscribeSite(bs, interval)
		}
	}
}

// subscribeSite runs one digest-subscription exchange on the site's
// primary lane, backing off on failure so an unreachable or pre-digest
// site is not hammered every refresh tick.
func (b *BrokerServer) subscribeSite(bs *brokerSite, interval time.Duration) {
	err := bs.primary.SubscribeDigests(interval)
	var backoff time.Duration
	switch {
	case err == nil:
	case errors.Is(err, ErrDigestUnsupported):
		// A v1 site: nothing to subscribe to on this connection. Retry only
		// rarely, in case the site restarts upgraded.
		backoff = 30 * interval
		b.eo.log.Info("site declined digest subscription", "addr", bs.addr, "err", err.Error())
	default:
		backoff = 2 * interval
	}
	bs.digestMu.Lock()
	bs.subInFlight = false
	if backoff > 0 {
		bs.nextSubAt = time.Now().Add(backoff)
	}
	bs.digestMu.Unlock()
}
