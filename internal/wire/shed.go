package wire

import (
	"math"
	"sync/atomic"

	"repro/internal/market"
	"repro/internal/obs"
)

// shedGate is the server's overload valve (DESIGN.md §15). It bounds two
// things the protocol otherwise leaves unbounded — the pending book's depth
// and the number of bid quotes in flight at once — and, when the book
// approaches its cap, sheds by value: the gate maintains an EWMA of the
// expected yield of recently admitted work and derives from it a
// marginal-yield floor that ramps up with queue depth, so the bids refused
// under pressure are the ones whose expected yield is lowest. A shed is
// always a fast priced reject carrying the current floor — never a stall,
// never a dropped connection.
//
// The gate is entirely atomic: the bid path stays lock-free.
type shedGate struct {
	// maxPending is the hard cap on pending-book depth; 0 disables the
	// depth gate entirely. The value floor starts ramping at half the cap
	// and reaches its full height (twice the admitted-yield EWMA) at the
	// cap, past which every bid is refused regardless of value.
	maxPending int
	// maxInflight caps concurrently evaluating bid quotes site-wide; 0
	// disables the gate. Each connection's reads are serial, so this
	// only binds when many connections bid at once.
	maxInflight int64

	inflight atomic.Int64
	// ewmaBits holds math.Float64bits of the admitted-yield EWMA.
	ewmaBits atomic.Uint64
}

// shedEWMAAlpha weights the newest admitted yield in the floor EWMA.
const shedEWMAAlpha = 0.2

func newShedGate(maxPending, maxInflight int) *shedGate {
	return &shedGate{maxPending: maxPending, maxInflight: int64(maxInflight)}
}

func (g *shedGate) ewma() float64 {
	return math.Float64frombits(g.ewmaBits.Load())
}

// observeAdmit folds an admitted bid's expected yield into the EWMA the
// floor is derived from.
func (g *shedGate) observeAdmit(yield float64) {
	if g.maxPending <= 0 || math.IsNaN(yield) || math.IsInf(yield, 0) {
		return
	}
	if yield < 0 {
		yield = 0
	}
	for {
		old := g.ewmaBits.Load()
		cur := math.Float64frombits(old)
		next := cur
		if cur == 0 {
			next = yield
		} else {
			next = (1-shedEWMAAlpha)*cur + shedEWMAAlpha*yield
		}
		if g.ewmaBits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// acquire claims an in-flight bid-quote slot, reporting false when the
// site is already evaluating its configured maximum. A caller that gets
// true must release.
func (g *shedGate) acquire() bool {
	if g.maxInflight <= 0 {
		return true
	}
	if g.inflight.Add(1) > g.maxInflight {
		g.inflight.Add(-1)
		return false
	}
	return true
}

func (g *shedGate) release() {
	if g.maxInflight > 0 {
		g.inflight.Add(-1)
	}
}

// floorAt returns the marginal-yield floor at pending depth: zero below
// half the cap, ramping linearly to twice the admitted-yield EWMA at the
// cap. Past the cap the floor saturates — the depth gate refuses
// regardless of value there, and the saturated floor is what the priced
// refusal advertises.
func (g *shedGate) floorAt(depth int) float64 {
	capDepth := g.maxPending
	low := capDepth / 2
	if depth <= low {
		return 0
	}
	top := 2 * g.ewma()
	if depth >= capDepth {
		return top
	}
	return top * float64(depth-low) / float64(capDepth-low)
}

// Shed reasons, used both as the site_shed_total reason label and (after
// shedReasonPrefix) on the wire so brokers and clients can tell a shed
// from a policy reject.
const (
	shedReasonPrefix   = "shed: "
	shedReasonBookFull = "book_full"
	shedReasonValue    = "value_floor"
	shedReasonInflight = "inflight"
	shedReasonDeadline = "deadline"
)

// shedFloorNow is the marginal-yield floor at the current queue depth,
// for refusals (inflight, deadline) that never reach a quote.
func (s *Server) shedFloorNow() float64 {
	if s.shed.maxPending <= 0 {
		return 0
	}
	return s.shed.floorAt(len(s.snap.Load().Pending))
}

// shedReject books one shed refusal and frames the fast priced reject:
// the reply carries the marginal-yield floor in force as ExpectedPrice,
// so a refused bidder learns what the site's capacity is currently worth.
func (s *Server) shedReject(bid market.Bid, reason, detail string, floor float64) Envelope {
	s.m.shed.With(s.cfg.SiteID, reason).Inc()
	s.m.shedFloor.Set(floor)
	s.mu.Lock()
	s.Shed++
	s.mu.Unlock()
	s.m.Cohort(bid.Cohort, "shed")
	s.traceBid(obs.StageReject, bid, floor, shedReasonPrefix+detail)
	return Envelope{
		Type: TypeReject, TaskID: bid.TaskID, SiteID: s.cfg.SiteID,
		ExpectedPrice: floor,
		Reason:        shedReasonPrefix + detail,
	}
}

// IsShedReason reports whether a reject reason marks an overload shed
// (as opposed to an admission-policy decline); brokers and clients use it
// to account refused work separately from declined work.
func IsShedReason(reason string) bool {
	return len(reason) >= len(shedReasonPrefix) && reason[:len(shedReasonPrefix)] == shedReasonPrefix
}

// evaluate gates one admission attempt at pending depth for a bid with
// the given expected yield. It returns the floor in force and the shed
// reason — empty means the bid clears the valve. A bid at or past the
// hard cap never clears, whatever its value.
func (g *shedGate) evaluate(depth int, yield float64) (floor float64, reason string) {
	if g == nil || g.maxPending <= 0 {
		return 0, ""
	}
	floor = g.floorAt(depth)
	if depth >= g.maxPending {
		return floor, shedReasonBookFull
	}
	if yield < floor {
		return floor, shedReasonValue
	}
	return floor, ""
}
