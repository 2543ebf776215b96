package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/durable"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/task"
)

// Crash-preemption regimes: what a recovering site does with a contract
// whose task was running when the process died. The run's progress is
// lost either way (the computation is not checkpointed, only the
// contract); the regime decides who eats that loss.
const (
	// RegimeRequeue restarts the task from scratch. The site absorbs the
	// lost progress; the client may be paid late (and the lateness decay
	// prices that delay into the settlement).
	RegimeRequeue = "requeue"
	// RegimeDefault settles the contract immediately as defaulted, at the
	// decayed price floor. The client learns promptly and can resubmit
	// elsewhere.
	RegimeDefault = "default"
)

// Contract journal record kinds. One record per contract-state transition;
// replaying the full sequence rebuilds the open-contract book.
const (
	recEpoch    = "epoch"    // first record ever: pins the server's wall-clock origin
	recContract = "contract" // award accepted, terms fixed (durable before the ack)
	recStart    = "start"    // task occupied a processor
	recSettle   = "settle"   // run completed, settlement price fixed
	recDefault  = "default"  // contract closed without delivery, penalty price fixed
	recAbandon  = "abandon"  // contract voided (client disconnected before start)
)

// contractRecord is the JSON payload framed into the durable journal. One
// struct covers every kind; unused fields stay zero and are omitted.
type contractRecord struct {
	Kind string `json:"kind"`

	// recEpoch: wall-clock origin (UnixNano) and time scale (ns per
	// simulation unit) of the site's clock. Recovery restores them so
	// `now` keeps advancing across restarts — downtime elapses, and the
	// decay function prices it into every recovered contract.
	Wall  int64 `json:"wall,omitempty"`
	Scale int64 `json:"scale,omitempty"`

	// recContract: the full bid tuple plus the agreed terms. Cohort and
	// Client are trace-v2 attribution labels; both omit empty, so journals
	// from before they existed replay unchanged.
	TaskID             task.ID `json:"task_id,omitempty"`
	Req                string  `json:"req,omitempty"`
	Arrival            float64 `json:"arrival,omitempty"`
	Runtime            float64 `json:"runtime,omitempty"`
	Value              float64 `json:"value,omitempty"`
	Decay              float64 `json:"decay,omitempty"`
	Bound              string  `json:"bound,omitempty"` // EncodeBound form
	ExpectedCompletion float64 `json:"expected_completion,omitempty"`
	ExpectedPrice      float64 `json:"expected_price,omitempty"`
	Cohort             string  `json:"cohort,omitempty"`
	Client             int     `json:"client,omitempty"`

	// recStart / recSettle / recDefault: event time in site units, and the
	// settlement price where one was fixed.
	T      float64 `json:"t,omitempty"`
	Price  float64 `json:"price,omitempty"`
	Reason string  `json:"reason,omitempty"`
}

func (s *Server) appendRecord(r contractRecord) error {
	_, _, err := s.appendRecordIdx(r)
	return err
}

// appendRecordIdx journals r and returns its index for a later
// durable.SyncBarrier. The append is batched — FsyncAlways durability is
// deferred to the caller's barrier so concurrent awards share one fsync.
// journaled is false when the server runs without a journal.
func (s *Server) appendRecordIdx(r contractRecord) (idx uint64, journaled bool, err error) {
	if s.j == nil {
		return 0, false, nil
	}
	b, err := json.Marshal(r)
	if err != nil {
		return 0, false, err
	}
	idx, err = s.j.AppendBatched(b)
	return idx, err == nil, err
}

// settlement is a closed contract retained for status queries: the final
// price and whether the site delivered or defaulted.
type settlement struct {
	Defaulted bool
	T         float64
	Price     float64
}

// bookEntry is one open contract reconstructed from the journal.
type bookEntry struct {
	rec     contractRecord
	running bool
}

// closedContract pairs a contract's award terms with the record that
// closed it, in journal order, so recovery can seed the economic ledger
// with the pre-crash history as well as the open book.
type closedContract struct {
	rec   contractRecord // the original recContract terms
	kind  string         // recSettle, recDefault, or recAbandon
	t     float64
	price float64
}

// recoveredBook is the journal fold: open contracts in journal order, the
// closed-contract settlements, the closed lifecycle history, and the clock
// epoch.
type recoveredBook struct {
	wall   int64
	scale  int64
	open   []task.ID
	book   map[task.ID]*bookEntry
	done   map[task.ID]settlement
	closed []closedContract
}

// foldJournal replays the contract journal into the recovered book.
func foldJournal(j *durable.Journal) (*recoveredBook, error) {
	rb := &recoveredBook{
		book: make(map[task.ID]*bookEntry),
		done: make(map[task.ID]settlement),
	}
	err := j.Replay(func(index uint64, payload []byte) error {
		var r contractRecord
		if err := json.Unmarshal(payload, &r); err != nil {
			return fmt.Errorf("wire: journal record %d: %w", index, err)
		}
		switch r.Kind {
		case recEpoch:
			if rb.wall != 0 {
				return fmt.Errorf("wire: journal record %d: duplicate epoch", index)
			}
			rb.wall, rb.scale = r.Wall, r.Scale
		case recContract:
			if _, dup := rb.book[r.TaskID]; dup {
				return fmt.Errorf("wire: journal record %d: duplicate contract for task %d", index, r.TaskID)
			}
			rb.book[r.TaskID] = &bookEntry{rec: r}
			rb.open = append(rb.open, r.TaskID)
		case recStart:
			e, ok := rb.book[r.TaskID]
			if !ok {
				return fmt.Errorf("wire: journal record %d: start for unknown task %d", index, r.TaskID)
			}
			e.running = true
		case recSettle, recDefault:
			e, ok := rb.book[r.TaskID]
			if !ok {
				return fmt.Errorf("wire: journal record %d: %s for unknown task %d", index, r.Kind, r.TaskID)
			}
			rb.closed = append(rb.closed, closedContract{rec: e.rec, kind: r.Kind, t: r.T, price: r.Price})
			rb.close(r.TaskID)
			rb.done[r.TaskID] = settlement{Defaulted: r.Kind == recDefault, T: r.T, Price: r.Price}
		case recAbandon:
			e, ok := rb.book[r.TaskID]
			if !ok {
				return fmt.Errorf("wire: journal record %d: abandon for unknown task %d", index, r.TaskID)
			}
			rb.closed = append(rb.closed, closedContract{rec: e.rec, kind: recAbandon, t: r.T})
			rb.close(r.TaskID)
		default:
			return fmt.Errorf("wire: journal record %d: unknown kind %q", index, r.Kind)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rb, nil
}

// ledgerEntryFromRecord rebuilds the award-time ledger entry from a
// journaled contract record.
func ledgerEntryFromRecord(r contractRecord) obs.LedgerEntry {
	return obs.LedgerEntry{
		Task:               uint64(r.TaskID),
		Req:                r.Req,
		Cohort:             r.Cohort,
		Client:             r.Client,
		BidValue:           r.Value,
		QuotedPrice:        r.ExpectedPrice,
		ExpectedCompletion: r.ExpectedCompletion,
		AwardedAt:          r.Arrival,
	}
}

// ledgerOutcome maps a closing journal record kind onto a ledger outcome.
func ledgerOutcome(kind string) string {
	switch kind {
	case recSettle:
		return obs.OutcomeSettled
	case recDefault:
		return obs.OutcomeDefaulted
	}
	return obs.OutcomeAbandoned
}

func (rb *recoveredBook) close(id task.ID) {
	delete(rb.book, id)
	for i, open := range rb.open {
		if open == id {
			rb.open = append(rb.open[:i], rb.open[i+1:]...)
			return
		}
	}
}

// openJournal opens (or creates) the contract journal and restores the
// server's clock and contract book from it. Called from NewServer before
// the listener accepts: recovery is complete before the first bid, and
// nothing else can reach the book yet, so it runs without bookMu.
func (s *Server) openJournal() error {
	began := time.Now()
	j, err := durable.Open(s.cfg.DataDir, durable.Options{
		Fsync:      s.cfg.Fsync,
		FsyncEvery: s.cfg.FsyncEvery,
		OnBatch: func(_ uint64, records int) {
			s.m.batchSyncs.Inc()
			s.m.batchRecords.Add(float64(records))
		},
	})
	if err != nil {
		return err
	}
	rb, err := foldJournal(j)
	if err != nil {
		j.Close()
		return err
	}
	s.j = j
	for id, st := range rb.done {
		s.settled[id] = st
	}

	scale := int64(s.cfg.TimeScale)
	if rb.wall == 0 {
		// Fresh journal: pin the clock origin as the first durable record.
		if err := s.appendRecord(contractRecord{Kind: recEpoch, Wall: s.start.UnixNano(), Scale: scale}); err != nil {
			j.Close()
			return err
		}
		if err := j.Sync(); err != nil {
			j.Close()
			return err
		}
		return nil
	}
	if rb.scale != scale {
		j.Close()
		return fmt.Errorf("wire: journal %s was written at timescale %v, server configured with %v",
			s.cfg.DataDir, time.Duration(rb.scale), s.cfg.TimeScale)
	}
	// Restore the epoch: now() continues from the original start, so the
	// downtime is elapsed time and decay prices it into every contract.
	s.start = time.Unix(0, rb.wall)
	now := s.now()

	// Re-seed the economic ledger with the journaled history: contracts
	// closed before the crash replay their full lifecycle, so the restarted
	// site's ledger still reconciles against its clients' view of every
	// contract, not just the ones that survived.
	if led := s.cfg.Ledger; led != nil {
		for _, c := range rb.closed {
			led.Open(ledgerEntryFromRecord(c.rec))
			led.Settle(uint64(c.rec.TaskID), ledgerOutcome(c.kind), c.t, c.price)
		}
	}

	rec := j.Recovery()
	regime := s.cfg.crashRegime()
	recovered, defaulted := 0, 0
	for _, id := range rb.open {
		e := rb.book[id]
		bound, err := DecodeBound(e.rec.Bound)
		if err != nil {
			j.Close()
			return fmt.Errorf("wire: journal contract for task %d: %w", id, err)
		}
		t := task.New(id, e.rec.Arrival, e.rec.Runtime, e.rec.Value, e.rec.Decay, bound)
		t.State = task.Queued
		t.Cohort = e.rec.Cohort
		t.Client = e.rec.Client
		// Rebook the contract queued (a crashed run restarts from zero), in
		// journal order.
		c := &contract{t: t, req: e.rec.Req, state: stateQueued,
			terms: market.ServerBid{SiteID: s.cfg.SiteID, TaskID: id,
				ExpectedCompletion: e.rec.ExpectedCompletion, ExpectedPrice: e.rec.ExpectedPrice}}
		s.bookLocked(c)
		if led := s.cfg.Ledger; led != nil {
			led.Open(ledgerEntryFromRecord(e.rec))
		}
		reason := ""
		switch {
		case !t.Unbounded() && t.ExpiredAt(now):
			reason = "expired during downtime"
		case e.running && regime == RegimeDefault:
			reason = "run preempted by crash"
		}
		if reason == "" {
			s.m.recovered.Inc()
			recovered++
			continue
		}
		price := math.Min(0, t.YieldAtCompletion(now))
		if err := s.appendRecord(contractRecord{Kind: recDefault, TaskID: id, T: now, Price: price, Reason: reason}); err != nil {
			j.Close()
			return err
		}
		s.closeLocked(c, obs.OutcomeDefaulted, now, price, reason)
		s.log.Info("contract defaulted in recovery", "task", id, "reason", reason, "price", price)
		defaulted++
	}
	if err := s.j.Sync(); err != nil {
		j.Close()
		return err
	}
	s.Accepted += recovered
	s.syncGaugesLocked()

	s.m.recoverySeconds.Set(time.Since(began).Seconds())
	s.m.recoveryRecords.Set(float64(rec.Records))
	s.m.recoveryTornBytes.Set(float64(rec.TruncatedBytes))
	s.log.Info("recovered contract journal",
		"records", rec.Records, "torn_bytes", rec.TruncatedBytes, "clean", rec.CleanShutdown,
		"recovered", recovered, "defaulted", defaulted, "settled", len(rb.done), "now", now)
	return nil
}
