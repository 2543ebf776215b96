package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/task"
	"repro/internal/wire"
	"repro/internal/workload"
)

// siteShape is what differs between the sites of the live workloads; the
// rest of the server configuration is the production one, everywhere.
type siteShape struct {
	procs      int
	shards     int
	maxPending int
	timeScale  time.Duration
}

// The production policy and quote discount (siteserver's defaults).
var sitePolicy = core.FirstReward{Alpha: 0.3, DiscountRate: 0.01}

const quoteDiscount = 0.01

// siteRig is one in-process site server.
type siteRig struct {
	dir    string // its DataDir
	srv    *wire.Server
	events *lockedBuffer // obs.Tracer sink, traced runs only
}

// newRegistry is the one registry a run's servers share; bare runs get none.
func newRegistry(cfg runConfig) *obs.Registry {
	if cfg.bare {
		return nil
	}
	return obs.NewRegistry()
}

func startSite(cfg runConfig, reg *obs.Registry, id string, shape siteShape) (*siteRig, error) {
	r := &siteRig{dir: filepath.Join(cfg.dir, id)}
	if err := os.RemoveAll(r.dir); err != nil {
		return nil, err
	}
	sc := wire.ServerConfig{
		SiteID:       id,
		Processors:   shape.procs,
		Shards:       shape.shards,
		MaxPending:   shape.maxPending,
		TimeScale:    shape.timeScale,
		Policy:       sitePolicy,
		Admission:    admission.SlackThreshold{},
		DiscountRate: quoteDiscount,
		DataDir:      r.dir,
		Fsync:        durable.FsyncAlways,
	}
	if reg != nil {
		sc.Metrics = reg
		sc.Ledger = obs.NewLedger(obs.LedgerConfig{Site: id, Policy: sc.Policy.Name(), Registry: reg})
	}
	if cfg.traced {
		r.events = &lockedBuffer{}
		sc.Tracer = obs.NewTracer(r.events, id)
	}
	srv, err := wire.NewServer("127.0.0.1:0", sc)
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", id, err)
	}
	r.srv = srv
	return r, nil
}

func dial(addr string) (*wire.SiteClient, error) {
	return wire.DialConfig(addr, wire.ClientConfig{Codec: wire.CodecBinary})
}

// rig is what a live workload sets up, drives and tears down: the sites,
// for the fleet a broker in front of them, and the client connections with
// their books.
type rig struct {
	reg     *obs.Registry
	trace   *workload.Trace
	shape   siteShape
	sites   []*siteRig
	clients []*wire.SiteClient
	books   []*book
	dialUS  float64 // mean dial + handshake per connection

	// fleet_bursty only.
	broker       *wire.BrokerServer
	brokerEvents *lockedBuffer    // broker's obs.Tracer sink, traced runs only
	direct       *wire.SiteClient // calibration connection straight to site 0, traced runs only
	perUnit      time.Duration    // wall time of one trace unit
}

func (r *rig) close() {
	for _, c := range r.clients {
		c.Close()
	}
	if r.direct != nil {
		r.direct.Close()
	}
	if r.broker != nil {
		r.broker.Close()
	}
	for _, s := range r.sites {
		s.srv.Close()
	}
}

// startSites starts n sites of r.shape on the run's registry.
func (r *rig) startSites(cfg runConfig, n int) error {
	for i := 0; i < n; i++ {
		s, err := startSite(cfg, r.reg, fmt.Sprintf("site-%d", i), r.shape)
		if err != nil {
			return err
		}
		r.sites = append(r.sites, s)
	}
	return nil
}

// dial opens cfg.conns connections to addr, each with a book of its own.
func (r *rig) dial(cfg runConfig, addr string) error {
	began := time.Now()
	for i := 0; i < cfg.conns; i++ {
		c, err := dial(addr)
		if err != nil {
			return err
		}
		b := newBook()
		c.SetOnSettled(b.onSettled)
		r.clients = append(r.clients, c)
		r.books = append(r.books, b)
	}
	r.dialUS = micros(time.Since(began)) / float64(cfg.conns)
	return nil
}

// setupRepeated sets a rig up reps times, tearing all but the last down
// again, and returns the last with every set-up's seconds.
func setupRepeated(reps int, setup func() (*rig, error)) (*rig, []float64, error) {
	var times []float64
	for i := 1; ; i++ {
		began := time.Now()
		r, err := setup()
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(began).Seconds())
		if i >= reps {
			return r, times, nil
		}
		r.close()
	}
}

// book is one connection's view of the contracts it was acked: the client
// side of conservation, the yield sums, and the IDs the journal must hold.
type book struct {
	mu        sync.Mutex
	open      map[task.ID]bool
	early     map[task.ID]float64 // settled before the award reply was booked
	acked     []task.ID
	settled   int
	defaulted int
	yield     float64
	pushes    int
}

func newBook() *book {
	return &book{open: map[task.ID]bool{}, early: map[task.ID]float64{}}
}

// award books an acked contract; a settlement push can overtake the award
// reply on its way to the caller, so it may already be waiting.
func (b *book) award(id task.ID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.acked = append(b.acked, id)
	if price, ok := b.early[id]; ok {
		delete(b.early, id)
		b.settled++
		b.yield += price
		return
	}
	b.open[id] = true
}

// onSettled books a settlement push.
func (b *book) onSettled(e wire.Envelope) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pushes++
	if b.open[e.TaskID] {
		delete(b.open, e.TaskID)
		b.settled++
		b.yield += e.FinalPrice
		return
	}
	b.early[e.TaskID] = e.FinalPrice
}

// swept books what a Query found for a contract no push has closed.
func (b *book) swept(st wire.ContractStatus) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open[st.TaskID] {
		return
	}
	switch st.State {
	case wire.ContractSettled:
		b.settled++
	case wire.ContractDefaulted:
		b.defaulted++
	default:
		return
	}
	delete(b.open, st.TaskID)
	b.yield += st.FinalPrice
}

func (b *book) openIDs() []task.ID {
	b.mu.Lock()
	defer b.mu.Unlock()
	ids := make([]task.ID, 0, len(b.open))
	for id := range b.open {
		ids = append(ids, id)
	}
	return ids
}

// drainBudget bounds the wait for open contracts after the loops stop.
const drainBudget = 20 * time.Second

// drain waits until every acked contract of every book has resolved.
// Settlement pushes cover nearly all; after a quiet half of the budget,
// Query sweeps the stragglers. It returns the Query calls made and the
// contracts still open at the deadline.
func drain(books []*book, clients []*wire.SiteClient) (queries, unresolved int) {
	deadline := time.Now().Add(drainBudget)
	sweepAt := time.Now().Add(drainBudget / 2)
	for {
		open := 0
		for i, b := range books {
			ids := b.openIDs()
			open += len(ids)
			if time.Now().Before(sweepAt) {
				continue
			}
			for _, id := range ids {
				queries++
				if st, err := clients[i].Query(id); err == nil {
					b.swept(st)
				}
			}
		}
		if open == 0 || time.Now().After(deadline) {
			return queries, open
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// journalRecord is the part of a site's contract-journal payload the
// durability check reads (DESIGN.md §10: JSON records, kind "contract"
// written before the award is acked).
type journalRecord struct {
	Kind   string  `json:"kind"`
	TaskID task.ID `json:"task_id"`
}

// replayed is what reopening the journals found.
type replayed struct {
	check   check
	records int
	bytes   int // payload bytes
	took    time.Duration
}

func (r replayed) recordBytes() float64 { return ratio(float64(r.bytes), float64(r.records)) }

// verifyJournals reopens each closed site's DataDir and confirms every
// acked award has its contract record in one of them. The record count,
// size and replay time feed the durable layer values.
func verifyJournals(sites []*siteRig, acked []task.ID) (r replayed) {
	const name = "journal_holds_acked_awards"
	have := make(map[task.ID]bool, len(acked))
	for _, s := range sites {
		j, err := durable.Open(s.dir, durable.Options{})
		if err != nil {
			r.check = checkf(name, false, "reopen %s: %v", s.dir, err)
			return r
		}
		began := time.Now()
		err = j.Replay(func(_ uint64, payload []byte) error {
			r.records++
			r.bytes += len(payload)
			var rec journalRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				return err
			}
			if rec.Kind == "contract" {
				have[rec.TaskID] = true
			}
			return nil
		})
		r.took += time.Since(began)
		j.Close()
		if err != nil {
			r.check = checkf(name, false, "replay %s: %v", s.dir, err)
			return r
		}
	}
	missing := 0
	for _, id := range acked {
		if !have[id] {
			missing++
		}
	}
	r.check = checkf(name, missing == 0, "%d of %d acked awards have no contract record", missing, len(acked))
	return r
}

// setupClosed is the set-up of both closed-loop workloads: the trace, one
// site, the connections.
func setupClosed(cfg runConfig, spec workload.Spec, shape siteShape) (*rig, []float64, error) {
	return setupRepeated(cfg.sizes.setupReps, func() (*rig, error) {
		r := &rig{reg: newRegistry(cfg), shape: shape}
		var err error
		if r.trace, err = workload.Generate(spec); err == nil {
			err = r.startSites(cfg, 1)
		}
		if err == nil {
			err = r.dial(cfg, r.sites[0].srv.Addr())
		}
		if err != nil {
			r.close()
			return nil, err
		}
		return r, nil
	})
}

// liveSpec is the bid mix of the single-site workloads: the paper's default
// mix with value and decay skew 4 and slow decay, so admission has both
// cheap and dear bids to tell apart at any depth.
func liveSpec(cfg runConfig, procs int) workload.Spec {
	spec := workload.Default()
	spec.Jobs = cfg.sizes.traceJobs
	spec.Seed = cfg.seed
	spec.Processors = procs
	spec.ValueSkew = 4
	spec.DecaySkew = 4
	spec.ZeroCrossFactor = 30
	return spec
}

// bidCycle hands out the trace's bids round and round with fresh task IDs.
type bidCycle struct {
	tasks []*task.Task
	next  atomic.Uint64
}

func (c *bidCycle) bid() market.Bid {
	n := c.next.Add(1)
	b := market.BidFromTask(c.tasks[(n-1)%uint64(len(c.tasks))])
	b.TaskID = task.ID(n)
	b.Arrival = 0 // the site stamps its own clock
	return b
}

// worker is one goroutine's share of a closed-loop run.
type worker struct {
	tally    tally
	offered  float64
	lat      []sample
	overpaid int // accepted quotes priced above the bid's value
	spans    *spanLog
}

// fold merges the workers into the outcome and returns how many accepted
// quotes were priced above their bid's value.
func (o *outcome) fold(marks []mark, workers []*worker) (overpaid int) {
	var samples []sample
	for _, w := range workers {
		o.tally.add(w.tally)
		o.offered += w.offered
		samples = append(samples, w.lat...)
		overpaid += w.overpaid
	}
	o.slices = slicesOf(marks, samples)
	return overpaid
}

// quoteResult books one ProposeDetail reply.
func (w *worker) quoteResult(b market.Bid, sb market.ServerBid, ok bool, reason string, err error) bool {
	switch {
	case err != nil:
		w.tally.Errors++
	case ok:
		if sb.ExpectedPrice > b.Value {
			w.overpaid++
		}
		return true
	case wire.IsShedReason(reason):
		w.tally.Shed++
	default:
		w.tally.Refused++
	}
	return false
}

// awardResult books one AwardDetail reply.
func (w *worker) awardResult(bk *book, b market.Bid, ok bool, reason string, err error) {
	switch {
	case err != nil:
		w.tally.Errors++
	case ok:
		w.tally.Awarded++
		bk.award(b.TaskID)
	case wire.IsShedReason(reason):
		w.tally.Shed++
	default:
		w.tally.Refused++
	}
}

// runSiteQuoteOverload is the quote-dominated closed loop: quoters call
// ProposeDetail back to back and hand accepted quotes to one awarder over a
// bounded channel, so slack admission holds the book at its own boundary
// while most traffic is pure quotes. The operation is one quote.
func runSiteQuoteOverload(cfg runConfig) (*outcome, error) {
	shape := siteShape{procs: 16, shards: 2, timeScale: 400 * time.Microsecond}
	rig, setups, err := setupClosed(cfg, liveSpec(cfg, shape.procs), shape)
	if err != nil {
		return nil, err
	}
	type handoff struct {
		bid market.Bid
		sb  market.ServerBid
	}
	var (
		tr      = newTracing(cfg.traced)
		cycle   = &bidCycle{tasks: rig.trace.Tasks}
		ph      atomic.Int32
		wg      sync.WaitGroup
		workers = make([]*worker, cfg.conns)
		// 64 accepted quotes may wait for the awarder; more are dropped, as a
		// client that took another site's offer would drop them.
		toAward = make(chan handoff, 64)
		quoters sync.WaitGroup
	)
	awarder := cfg.conns - 1
	for i := range workers {
		workers[i] = &worker{spans: tr.log()}
	}
	for i := 0; i < awarder; i++ {
		wg.Add(1)
		quoters.Add(1)
		go func(w *worker, c *wire.SiteClient) {
			defer wg.Done()
			defer quoters.Done()
			for {
				p := ph.Load()
				if p == phaseStop {
					return
				}
				b := cycle.bid()
				w.tally.Submitted++
				began := time.Now()
				sb, ok, reason, err := c.ProposeDetail(b)
				end := time.Now()
				w.spans.add("wire.client.propose", "", uint64(b.TaskID), began, end)
				if p == phaseMeasure {
					w.lat = append(w.lat, sample{end.Sub(epoch), micros(end.Sub(began))})
				}
				if w.quoteResult(b, sb, ok, reason, err) {
					select {
					case toAward <- handoff{b, sb}:
					default:
						w.tally.Withdrawn++
					}
				}
			}
		}(workers[i], rig.clients[i])
	}
	wg.Add(1)
	go func(w *worker, c *wire.SiteClient, bk *book) {
		defer wg.Done()
		for h := range toAward {
			w.offered += h.bid.Value
			began := time.Now()
			_, ok, reason, err := c.AwardDetail(h.bid, h.sb)
			w.spans.add("wire.client.award", "", uint64(h.bid.TaskID), began, time.Now())
			w.awardResult(bk, h.bid, ok, reason, err)
		}
	}(workers[awarder], rig.clients[awarder], rig.books[awarder])

	probe := newProbe(cfg, rig)
	marks := window(cfg, &ph, probe)
	quoters.Wait()
	close(toAward)
	wg.Wait()
	return finishLive(cfg, &outcome{setup: setups}, rig, marks, workers, tr, probe), nil
}

// runSiteAwardDurable is the write-dominated closed loop: every connection
// proposes and awards every bid against a near-empty book, so group commit,
// dispatch, settlement and the ledger do the work. The operation is one
// AwardDetail round trip.
func runSiteAwardDurable(cfg runConfig) (*outcome, error) {
	shape := siteShape{procs: 8, shards: 2, timeScale: 20 * time.Microsecond}
	spec := liveSpec(cfg, shape.procs)
	// Runtimes of 1-4 units finish in tens of microseconds at this scale.
	spec.MeanRuntime = 2.5
	spec.RuntimeKind = workload.DistNormal
	// One fsync lasts ~25 units of this site's clock. Decay is set two
	// orders slower than on the quote workload, so yield_fraction shows a
	// contract lost or mispriced and not how fast the disk was that minute.
	spec.ZeroCrossFactor = 3000
	rig, setups, err := setupClosed(cfg, spec, shape)
	if err != nil {
		return nil, err
	}
	var (
		tr      = newTracing(cfg.traced)
		cycle   = &bidCycle{tasks: rig.trace.Tasks}
		ph      atomic.Int32
		wg      sync.WaitGroup
		workers = make([]*worker, cfg.conns)
	)
	for i := range workers {
		workers[i] = &worker{spans: tr.log()}
		wg.Add(1)
		go func(w *worker, c *wire.SiteClient, bk *book) {
			defer wg.Done()
			for {
				p := ph.Load()
				if p == phaseStop {
					return
				}
				b := cycle.bid()
				id := uint64(b.TaskID)
				w.tally.Submitted++
				w.offered += b.Value
				began := time.Now()
				sb, ok, reason, err := c.ProposeDetail(b)
				quoted := time.Now()
				w.spans.add("wire.client.propose", "bid", id, began, quoted)
				if !w.quoteResult(b, sb, ok, reason, err) {
					w.spans.add("bid", "", id, began, quoted)
					continue
				}
				_, ok, reason, err = c.AwardDetail(b, sb)
				end := time.Now()
				w.spans.add("wire.client.award", "bid", id, quoted, end)
				w.spans.add("bid", "", id, began, end)
				if p == phaseMeasure {
					w.lat = append(w.lat, sample{end.Sub(epoch), micros(end.Sub(quoted))})
				}
				w.awardResult(bk, b, ok, reason, err)
			}
		}(workers[i], rig.clients[i], rig.books[i])
	}
	probe := newProbe(cfg, rig)
	marks := window(cfg, &ph, probe)
	wg.Wait()
	return finishLive(cfg, &outcome{setup: setups}, rig, marks, workers, tr, probe), nil
}

// finishLive ends a live run: drain the books, shut the rig down, fold the
// workers into the outcome, run the checks every live workload shares and,
// on a traced run, collect the layer values.
func finishLive(cfg runConfig, out *outcome, r *rig, marks []mark, workers []*worker, tr *tracing, probe *probe) *outcome {
	cf := clientFacts{dialUS: r.dialUS}
	cf.queries, out.tally.Unresolved = drain(r.books, r.clients)
	r.close()
	var acked []task.ID
	for _, b := range r.books {
		out.tally.Settled += b.settled
		out.tally.Defaulted += b.defaulted
		out.yield += b.yield
		acked = append(acked, b.acked...)
		cf.pushes += b.pushes
	}
	overpaid := out.fold(marks, workers)
	journal := verifyJournals(r.sites, acked)
	out.checks = append(out.checks,
		out.tally.conservation(), out.tally.resolved(),
		checkf("quote_price_le_value", overpaid == 0, "%d accepted quotes priced above the bid's value", overpaid),
		journal.check)
	if cfg.traced {
		out.inputs = layerInputs{spec: r.trace.Spec, policy: sitePolicy, procs: r.shape.procs, depth: probe.depth(),
			recordBytes: int(journal.recordBytes()), conns: cfg.conns, dir: cfg.dir, sizes: cfg.sizes}
		out.spans = tr.all()
		out.layers = probe.layers(out, cf, journal)
	}
	return out
}
