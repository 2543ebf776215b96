// Package wire implements the negotiation protocol of Figure 1 over TCP,
// so a client or broker can negotiate with real task-service site
// processes.
//
// The protocol is the paper's single exchange pair plus the award:
//
//	client -> site: {"type":"bid", ...}            sealed bid
//	site -> client: {"type":"serverbid", ...}      accept: expected completion+price
//	                {"type":"reject", ...}         or reject
//	client -> site: {"type":"award", ...}          commit the winning site
//	site -> client: {"type":"contract", ...}       contract opened
//	site -> client: {"type":"settled", ...}        pushed at task completion
//
// Every connection carries one client's traffic and opens with a hello, a
// JSON line offering codec names; the server answers with a welcome
// naming the codec both sides switch to for the rest of the connection
// (see Codec). A connection that opens with anything else is answered
// with one error and closed.
package wire

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/market"
	"repro/internal/task"
)

// Message types.
const (
	TypeBid       = "bid"
	TypeServerBid = "serverbid"
	TypeReject    = "reject"
	TypeAward     = "award"
	TypeContract  = "contract"
	TypeSettled   = "settled"
	TypeError     = "error"
	// TypeQuery asks a site for the state of a contract by task ID;
	// TypeStatus is the reply. Querying an open contract also re-subscribes
	// the querying connection to that contract's settlement push, which is
	// how a client reconciles after a site restart (DESIGN.md §10).
	TypeQuery  = "query"
	TypeStatus = "status"
	// TypeHello opens codec negotiation: every connection's first frame,
	// always JSON, carrying Proto and the codec names it offers in
	// preference order. TypeWelcome is the server's JSON answer naming the
	// codec the connection switches to.
	TypeHello   = "hello"
	TypeWelcome = "welcome"
	// TypeDigestSub subscribes the requesting connection to periodic load
	// digests from a site: the request carries the desired push interval
	// (Interval, milliseconds) and the site echoes a TypeDigestSub ack with
	// the effective interval before the first push. TypeDigest is the
	// pushed digest itself — queue depth, running count, backlog horizon,
	// shed floor, shed state — demultiplexed client-side like TypeSettled.
	TypeDigestSub = "digest_sub"
	TypeDigest    = "digest"
)

// ProtoV2 is the protocol version exchanged in hello/welcome; a hello
// naming an earlier version is refused.
const ProtoV2 = 2

// Contract states reported by TypeStatus replies.
const (
	ContractOpen      = "open"      // under contract, not yet settled
	ContractSettled   = "settled"   // delivered; CompletedAt/FinalPrice are final
	ContractDefaulted = "defaulted" // closed without delivery; FinalPrice is the penalty
	ContractUnknown   = "unknown"   // no record of the task
)

// Envelope frames every message with its type; the payload fields are
// flattened alongside.
type Envelope struct {
	Type string `json:"type"`

	// ReqID is the task's lifecycle trace ID, minted at bid time and
	// echoed on every reply and settlement so one task can be followed
	// across client, broker, and site logs. Empty when tracing is off;
	// servers treat it as opaque.
	ReqID string `json:"req,omitempty"`

	// Bid / Award fields.
	TaskID  task.ID `json:"task_id,omitempty"`
	Arrival float64 `json:"arrival,omitempty"`
	Runtime float64 `json:"runtime,omitempty"`
	Value   float64 `json:"value,omitempty"`
	Decay   float64 `json:"decay,omitempty"`
	Bound   string  `json:"bound,omitempty"` // "inf" or a number, so +Inf survives JSON
	// Cohort and Client carry the trace-v2 workload labels with the bid so
	// the site can attribute metrics and ledger entries; opaque otherwise.
	Cohort string `json:"cohort,omitempty"`
	Client int    `json:"client,omitempty"`

	// Deadline is the bid's remaining negotiation budget in wall-clock
	// milliseconds, minted once at bid time and re-stamped (shrunk by the
	// local wait so far) at every hop: client → broker → site. Zero means
	// no budget was minted; a negative value means the budget is present
	// but already spent — senders whose remainder rounds to exactly zero
	// stamp -1, since a zero field is indistinguishable from "absent"
	// under both codecs' omitempty semantics. A site refuses to quote a
	// bid whose budget is spent (the quote would be dead on arrival), but
	// never refuses an award: committed work is finished regardless of
	// how stale the negotiation that placed it has become (DESIGN.md §15).
	Deadline float64 `json:"deadline_ms,omitempty"`

	// ServerBid / Contract / Settled fields.
	SiteID             string  `json:"site_id,omitempty"`
	ExpectedCompletion float64 `json:"expected_completion,omitempty"`
	ExpectedPrice      float64 `json:"expected_price,omitempty"`
	CompletedAt        float64 `json:"completed_at,omitempty"`
	FinalPrice         float64 `json:"final_price,omitempty"`

	// Status reply field: one of the Contract* states.
	ContractState string `json:"contract_state,omitempty"`

	// Error / Reject detail.
	Reason string `json:"reason,omitempty"`

	// Handshake fields (hello/welcome only). Proto is the highest protocol
	// version the sender speaks; Codecs is the hello's offered codec names
	// in preference order; Codec is the welcome's chosen codec.
	Proto  int      `json:"proto,omitempty"`
	Codec  string   `json:"codec,omitempty"`
	Codecs []string `json:"codecs,omitempty"`

	// Digest fields (digest/digest_sub only, DESIGN.md §16). Queue and
	// Running are the site's pending and running task counts; Procs its
	// processor count; Backlog the expected per-processor work horizon in
	// simulation units (remaining running time plus queued runtimes, over
	// Procs); Floor the overload valve's current marginal-yield floor; and
	// Shedding whether the valve's depth ramp is active. Interval is the
	// push cadence in milliseconds — the subscriber's request and the
	// site's ack both carry it.
	Queue    int     `json:"queue,omitempty"`
	Running  int     `json:"running,omitempty"`
	Procs    int     `json:"procs,omitempty"`
	Backlog  float64 `json:"backlog,omitempty"`
	Floor    float64 `json:"floor,omitempty"`
	Shedding bool    `json:"shedding,omitempty"`
	Interval float64 `json:"interval_ms,omitempty"`
}

// ShrinkDeadline returns the deadline budget d (milliseconds remaining)
// after elapsed local wall-clock time has been spent at this hop. A zero d
// (no budget minted) passes through untouched; any other remainder that
// would land on exactly zero is nudged to -1 so the "present but spent"
// state survives omitempty encoding. DeadlineSpent reports whether a
// budget is present and exhausted.
func ShrinkDeadline(d float64, elapsed time.Duration) float64 {
	if d == 0 {
		return 0
	}
	d -= float64(elapsed) / float64(time.Millisecond)
	if d == 0 {
		return -1
	}
	return d
}

// DeadlineSpent reports whether the deadline budget d is present (minted)
// and already exhausted. Zero means no budget, so it is never spent.
func DeadlineSpent(d float64) bool { return d < 0 }

// EncodeBound renders a penalty bound for the wire.
func EncodeBound(b float64) string {
	if math.IsInf(b, 1) {
		return "inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// DecodeBound parses a wire bound. An empty field means unbounded, matching
// EncodeBound's treatment of +Inf as the common case in the experiments.
func DecodeBound(s string) (float64, error) {
	if s == "" || s == "inf" {
		return math.Inf(1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 || math.IsNaN(v) {
		return 0, fmt.Errorf("wire: bad bound %q", s)
	}
	return v, nil
}

// BidEnvelope frames a market bid.
func BidEnvelope(b market.Bid) Envelope {
	return Envelope{
		Type:    TypeBid,
		ReqID:   b.ReqID,
		TaskID:  b.TaskID,
		Arrival: b.Arrival,
		Runtime: b.Runtime,
		Value:   b.Value,
		Decay:   b.Decay,
		Bound:   EncodeBound(b.Bound),
		Cohort:  b.Cohort,
		Client:  b.Client,

		Deadline: b.Deadline,
	}
}

// AwardEnvelope frames an award for a previously proposed bid.
func AwardEnvelope(b market.Bid, sb market.ServerBid) Envelope {
	e := BidEnvelope(b)
	e.Type = TypeAward
	e.SiteID = sb.SiteID
	e.ExpectedCompletion = sb.ExpectedCompletion
	e.ExpectedPrice = sb.ExpectedPrice
	return e
}

// Bid extracts the market bid from a bid or award envelope.
func (e Envelope) Bid() (market.Bid, error) {
	if e.Type != TypeBid && e.Type != TypeAward {
		return market.Bid{}, fmt.Errorf("wire: %q envelope has no bid", e.Type)
	}
	bound, err := DecodeBound(e.Bound)
	if err != nil {
		return market.Bid{}, err
	}
	b := market.Bid{
		ReqID:   e.ReqID,
		TaskID:  e.TaskID,
		Arrival: e.Arrival,
		Runtime: e.Runtime,
		Value:   e.Value,
		Decay:   e.Decay,
		Bound:   bound,
		Cohort:  e.Cohort,
		Client:  e.Client,

		Deadline: e.Deadline,
	}
	if b.Runtime <= 0 || math.IsNaN(b.Runtime) {
		return market.Bid{}, fmt.Errorf("wire: bid for task %d has bad runtime %v", b.TaskID, b.Runtime)
	}
	if b.Decay < 0 || math.IsNaN(b.Decay) || math.IsInf(b.Decay, 0) {
		return market.Bid{}, fmt.Errorf("wire: bid for task %d has bad decay %v", b.TaskID, b.Decay)
	}
	// Value and Arrival feed yield accounting and the ledger's
	// expected-vs-realized totals directly; a NaN or infinite value (or a
	// NaN/negative arrival) would poison every aggregate it touches.
	if math.IsNaN(b.Value) || math.IsInf(b.Value, 0) {
		return market.Bid{}, fmt.Errorf("wire: bid for task %d has bad value %v", b.TaskID, b.Value)
	}
	if b.Arrival < 0 || math.IsNaN(b.Arrival) {
		return market.Bid{}, fmt.Errorf("wire: bid for task %d has bad arrival %v", b.TaskID, b.Arrival)
	}
	// Deadline may be negative (budget present but spent) but never
	// non-finite: the broker and site subtract their own wait from it, and
	// NaN/Inf would make every downstream remaining-time comparison lie.
	if math.IsNaN(b.Deadline) || math.IsInf(b.Deadline, 0) {
		return market.Bid{}, fmt.Errorf("wire: bid for task %d has bad deadline %v", b.TaskID, b.Deadline)
	}
	return b, nil
}

// ServerBid extracts the server bid from a serverbid or award envelope.
func (e Envelope) ServerBid() (market.ServerBid, error) {
	if e.Type != TypeServerBid && e.Type != TypeAward && e.Type != TypeContract {
		return market.ServerBid{}, fmt.Errorf("wire: %q envelope has no server bid", e.Type)
	}
	return market.ServerBid{
		SiteID:             e.SiteID,
		TaskID:             e.TaskID,
		ExpectedCompletion: e.ExpectedCompletion,
		ExpectedPrice:      e.ExpectedPrice,
	}, nil
}
