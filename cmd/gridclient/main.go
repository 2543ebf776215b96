// Command gridclient submits a stream of task bids to one or more
// siteserver instances, negotiating each placement per Figure 1 and
// reporting the contracts and settlements it obtains.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/task"
	"repro/internal/wire"
	"repro/internal/workload"
)

func main() {
	var (
		sites       = flag.String("sites", "127.0.0.1:7600", "comma-separated site addresses")
		n           = flag.Int("n", 20, "tasks to submit")
		seed        = flag.Int64("seed", 1, "workload seed")
		mean        = flag.Duration("interarrival", 200*time.Millisecond, "mean wall-clock gap between submissions")
		scale       = flag.Duration("timescale", 10*time.Millisecond, "wall-clock duration of one simulation time unit (must match the servers)")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-request timeout against each site")
		codec       = flag.String("codec", "", "codec to request from each site: json|binary (empty = binary)")
		retries     = flag.Int("retries", 2, "per-site retries on transient failures (negative disables)")
		backoff     = flag.Duration("backoff", 50*time.Millisecond, "first retry delay, doubling per attempt")
		selector    = flag.String("selector", "best-yield", "server-bid selector spec: best-yield|earliest")
		deadlineBud = flag.Duration("deadline", 0, "deadline budget minted on each bid; it shrinks per hop and sites refuse to quote spent work (0 disables)")
		reconcile   = flag.Duration("reconcile", 2*time.Second, "poll outstanding contracts this often while draining (0 disables)")
		logLevel    = flag.String("log-level", "warn", "minimum log level: debug|info|warn|error")
		metrics     = flag.String("metrics-addr", "", "serve /metrics, /healthz, and /debug/pprof on this address (empty disables)")
		trace       = flag.Bool("trace", false, "emit task-lifecycle trace events (JSON) to stderr")
		record      = flag.String("record", "", "write the stream of bids actually submitted as a trace-v2 file on exit")
		replay      = flag.String("replay", "", "replay a trace file instead of generating: submit its tasks in order, pacing by arrival gaps times -timescale (overrides -n, -seed, -interarrival)")
		ledgerOut   = flag.String("ledger-out", "", "write the client-side contract ledger as JSON on exit (\"-\" for stdout; empty disables)")
	)
	flag.Parse()

	lv, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridclient:", err)
		os.Exit(2)
	}
	sel, err := market.ParseSelector(*selector)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridclient:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, lv, "gridclient")
	var tracer *obs.Tracer
	if *trace {
		tracer = obs.TracerFor(logger, "gridclient")
	}
	if *metrics != "" {
		diag, err := obs.ServeDiag(*metrics, obs.DiagConfig{Logger: logger})
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridclient:", err)
			os.Exit(1)
		}
		defer diag.Close()
		fmt.Printf("diagnostics on http://%s/metrics\n", diag.Addr())
	}
	// The client-side contract ledger mirrors the client's own view of
	// every placement: opened at contract award, settled when the site's
	// push or the reconcile poll delivers the outcome. A site's ledger can
	// be reconciled against this dump (see DESIGN.md §13).
	var ledger *obs.Ledger
	if *ledgerOut != "" {
		ledger = obs.NewLedger(obs.LedgerConfig{Site: "gridclient"})
	}
	lateness := obs.Default.Histogram("market_settlement_lateness",
		"Completion time minus contracted completion, in simulation units.",
		nil, "site")
	defaults := obs.Default.Counter("market_contracts_defaulted_total",
		"Contracts whose site reported them defaulted.", "role", "site")

	start := time.Now()
	var clients []*wire.SiteClient
	var mu sync.Mutex
	settledCount, defaultedCount, lostCount := 0, 0, 0
	revenue := 0.0
	expected := make(map[task.ID]float64)        // contracted completion per task
	holder := make(map[task.ID]*wire.SiteClient) // site holding each open contract
	var wg sync.WaitGroup

	// claim closes a contract exactly once: the settlement push and the
	// reconciliation poll can race to deliver the same outcome.
	claim := func(id task.ID) (float64, bool) {
		mu.Lock()
		defer mu.Unlock()
		want, ok := expected[id]
		if ok {
			delete(expected, id)
			delete(holder, id)
		}
		return want, ok
	}

	for _, addr := range strings.Split(*sites, ",") {
		c, err := wire.DialConfig(strings.TrimSpace(addr), wire.ClientConfig{RequestTimeout: *timeout, Codec: *codec})
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridclient:", err)
			os.Exit(1)
		}
		c.SetOnSettled(func(e wire.Envelope) {
			want, open := claim(e.TaskID)
			if !open {
				return // already reconciled via query
			}
			mu.Lock()
			settledCount++
			revenue += e.FinalPrice
			mu.Unlock()
			ledger.Settle(uint64(e.TaskID), obs.OutcomeSettled, e.CompletedAt, e.FinalPrice)
			lateness.With(e.SiteID).Observe(e.CompletedAt - want)
			tracer.Emit(obs.TraceEvent{Stage: obs.StageSettle, Task: uint64(e.TaskID),
				Req: e.ReqID, Site: e.SiteID, T: e.CompletedAt, Value: e.FinalPrice})
			fmt.Printf("settled  task %d at %s: price %.2f\n", e.TaskID, e.SiteID, e.FinalPrice)
			wg.Done()
		})
		defer c.Close()
		clients = append(clients, c)
	}

	// reconcileOutstanding queries every open contract at its site. A dead
	// connection is redialed first — the settlement callback survives the
	// redial, and querying an open contract re-subscribes this connection to
	// its settlement push, so contracts held across a site restart settle
	// here instead of waiting forever. Contracts the site reports settled
	// are claimed as if the push had arrived; defaulted ones are logged and
	// their penalty booked; unknown ones are written off.
	reconcileOutstanding := func() {
		mu.Lock()
		open := make(map[task.ID]*wire.SiteClient, len(holder))
		for id, c := range holder {
			open[id] = c
		}
		mu.Unlock()
		for id, c := range open {
			st, err := c.Query(id)
			if err != nil {
				if rerr := c.Redial(); rerr != nil {
					logger.Warn("site unreachable during reconcile", "task", uint64(id), "addr", c.Addr(), "err", rerr.Error())
					continue
				}
				if st, err = c.Query(id); err != nil {
					logger.Warn("contract query failed after redial", "task", uint64(id), "addr", c.Addr(), "err", err.Error())
					continue
				}
			}
			switch st.State {
			case wire.ContractOpen:
				// Still running; the query re-subscribed us to the push.
			case wire.ContractSettled:
				if want, ok := claim(id); ok {
					mu.Lock()
					settledCount++
					revenue += st.FinalPrice
					mu.Unlock()
					ledger.Settle(uint64(id), obs.OutcomeSettled, st.CompletedAt, st.FinalPrice)
					lateness.With(c.SiteID()).Observe(st.CompletedAt - want)
					fmt.Printf("settled  task %d at %s: price %.2f (reconciled)\n", id, c.SiteID(), st.FinalPrice)
					wg.Done()
				}
			case wire.ContractDefaulted:
				if _, ok := claim(id); ok {
					mu.Lock()
					defaultedCount++
					revenue += st.FinalPrice
					mu.Unlock()
					ledger.Settle(uint64(id), obs.OutcomeDefaulted, st.CompletedAt, st.FinalPrice)
					defaults.With("client", c.SiteID()).Inc()
					logger.Warn("contract defaulted", "task", uint64(id), "site", c.SiteID(), "price", st.FinalPrice)
					fmt.Printf("default  task %d at %s: penalty %.2f\n", id, c.SiteID(), st.FinalPrice)
					wg.Done()
				}
			case wire.ContractUnknown:
				if _, ok := claim(id); ok {
					mu.Lock()
					lostCount++
					mu.Unlock()
					ledger.Settle(uint64(id), obs.OutcomeAbandoned, float64(time.Since(start))/float64(*scale), 0)
					logger.Warn("contract lost: site has no record of it", "task", uint64(id), "site", c.SiteID())
					wg.Done()
				}
			}
		}
	}
	neg := &wire.Negotiator{
		Sites:          clients,
		Selector:       sel,
		Retries:        *retries,
		Backoff:        *backoff,
		DeadlineBudget: *deadlineBud,
		Logger:         logger,
		Metrics:        obs.Default,
		Tracer:         tracer,
	}

	var tr *workload.Trace
	if *replay != "" {
		tr, err = workload.ReadFile(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridclient:", err)
			os.Exit(1)
		}
	} else {
		spec := workload.Default()
		spec.Jobs = *n
		spec.Seed = *seed
		spec.MeanRuntime = 20 // simulation units; 200ms of wall clock at the default scale
		spec.ValueSkew = 3
		spec.DecaySkew = 5
		tr, err = workload.Generate(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridclient:", err)
			os.Exit(1)
		}
	}
	var rec *workload.Recorder
	if *record != "" {
		rec = workload.NewRecorder(tr.Spec)
	}

	rng := rand.New(rand.NewSource(*seed))
	placed, declined := 0, 0
	var prevArrival float64
	for i, t := range tr.Tasks {
		if i > 0 {
			if *replay != "" {
				// Reproduce the trace's tempo: one simulation time unit of
				// arrival gap is -timescale of wall clock.
				time.Sleep(time.Duration((t.Arrival - prevArrival) * float64(*scale)))
			} else {
				time.Sleep(time.Duration(rng.ExpFloat64() * float64(*mean)))
			}
		}
		prevArrival = t.Arrival
		wt := cloneForWire(t)
		if rec != nil {
			// Stamp the submission instant in simulation units so the
			// recording replays at the tempo the service actually saw.
			rec.Record(wt, float64(time.Since(start))/float64(*scale))
		}
		bid := market.BidFromTask(wt)
		terms, ok, err := neg.Negotiate(bid)
		if err != nil {
			// Every site unreachable: report and keep trying later bids
			// rather than abandoning the run — sites may come back.
			declined++
			fmt.Fprintf(os.Stderr, "gridclient: task %d: %v\n", bid.TaskID, err)
			continue
		}
		if !ok {
			declined++
			fmt.Printf("declined task %d (no site accepted)\n", bid.TaskID)
			continue
		}
		placed++
		mu.Lock()
		expected[terms.TaskID] = terms.ExpectedCompletion
		for _, c := range clients {
			if c.SiteID() == terms.SiteID {
				holder[terms.TaskID] = c
				break
			}
		}
		mu.Unlock()
		ledger.Open(obs.LedgerEntry{
			Task: uint64(terms.TaskID), Site: terms.SiteID,
			Cohort: wt.Cohort, Client: wt.Client,
			BidValue: wt.Value, QuotedPrice: terms.ExpectedPrice,
			ExpectedCompletion: terms.ExpectedCompletion,
			AwardedAt:          float64(time.Since(start)) / float64(*scale),
		})
		wg.Add(1)
		fmt.Printf("contract task %d -> %s: expected completion %.1f, price %.2f\n",
			bid.TaskID, terms.SiteID, terms.ExpectedCompletion, terms.ExpectedPrice)
	}

	// Wait for outstanding settlements, bounded by the worst-case drain
	// time, reconciling periodically so contracts stranded by a site
	// restart are re-subscribed or written off instead of waited on
	// forever.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	deadline := time.After(time.Duration(float64(*scale) * 20 * float64(len(tr.Tasks)) * 5))
	var tick <-chan time.Time
	if *reconcile > 0 {
		ticker := time.NewTicker(*reconcile)
		defer ticker.Stop()
		tick = ticker.C
	}
	for draining := true; draining; {
		select {
		case <-done:
			draining = false
		case <-tick:
			reconcileOutstanding()
		case <-deadline:
			reconcileOutstanding()
			mu.Lock()
			stranded := len(expected)
			mu.Unlock()
			if stranded > 0 {
				fmt.Printf("timed out waiting for %d settlements\n", stranded)
			}
			draining = false
		}
	}

	if rec != nil {
		if err := rec.WriteFile(*record); err != nil {
			fmt.Fprintln(os.Stderr, "gridclient: record:", err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d submissions to %s\n", rec.Len(), *record)
	}

	if ledger != nil {
		w := os.Stdout
		if *ledgerOut != "-" {
			f, err := os.Create(*ledgerOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gridclient: ledger:", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		if err := ledger.WriteJSON(w); err != nil {
			fmt.Fprintln(os.Stderr, "gridclient: ledger:", err)
			os.Exit(1)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("\nplaced %d, declined %d, settled %d, defaulted %d, lost %d, revenue %.2f\n",
		placed, declined, settledCount, defaultedCount, lostCount, revenue)
}

// cloneForWire strips the generated arrival stamp: in the live protocol a
// bid's release time is its submission instant.
func cloneForWire(t *task.Task) *task.Task {
	c := t.Clone()
	c.Arrival = 0
	return c
}
