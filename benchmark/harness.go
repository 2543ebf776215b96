package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// sizes are the knobs that scale a workload down for the package test; the
// command always runs fullSizes.
type sizes struct {
	traceJobs   int           // bids in a live site's cycled trace
	simJobs     int           // jobs per simulated trace (Figure 3 uses 5000)
	setupReps   int           // set-ups per run; setup_s is their median
	callBudget  time.Duration // how long each direct-call timing samples
	syncAppends int           // appends per writer in the direct journal timing
}

var fullSizes = sizes{traceJobs: 65536, simJobs: 5000, setupReps: 5, callBudget: 50 * time.Millisecond, syncAppends: 300}

// runConfig is one measured run of one workload.
type runConfig struct {
	seed   int64
	window time.Duration // measured window; warm-up comes on top
	traced bool          // record spans, server trace events and layer counters
	bare   bool          // servers without Metrics and Ledger (obs cost reference)
	conns  int           // client connections, min(nproc, 4)
	dir    string        // scratch directory for journals, inside the checkout
	sizes  sizes
}

// warmup is discarded before the window opens: caches fill, the book
// reaches its working depth, lazy set-up ends.
func (c runConfig) warmup() time.Duration { return c.window / 10 }

// tally counts every bid's outcome so conservation can be checked with
// zero unknowns. Admission declines and sheds are outcomes, not failures.
type tally struct {
	Submitted  int `json:"submitted"`  // bids sent to the market
	Refused    int `json:"refused"`    // declined by admission, at quote or award
	Shed       int `json:"shed"`       // refused by the overload valve
	Withdrawn  int `json:"withdrawn"`  // accepted quotes the client let lapse (site_quote_overload's quoters)
	Awarded    int `json:"awarded"`    // contracts acked
	Settled    int `json:"settled"`    // contracts delivered
	Defaulted  int `json:"defaulted"`  // contracts closed without delivery
	Errors     int `json:"errors"`     // RPC errors and timeouts
	Unresolved int `json:"unresolved"` // contracts still open at the drain deadline
}

func (t *tally) add(o tally) {
	t.Submitted += o.Submitted
	t.Refused += o.Refused
	t.Shed += o.Shed
	t.Withdrawn += o.Withdrawn
	t.Awarded += o.Awarded
	t.Settled += o.Settled
	t.Defaulted += o.Defaulted
	t.Errors += o.Errors
	t.Unresolved += o.Unresolved
}

// conservation is the economic invariant with zero unknowns: every bid
// sent has exactly one outcome.
func (t tally) conservation() check {
	return checkf("conservation",
		t.Settled+t.Defaulted+t.Shed+t.Refused+t.Withdrawn+t.Errors+t.Unresolved == t.Submitted,
		"settled %d + defaulted %d + shed %d + refused %d + withdrawn %d + errors %d + unresolved %d != submitted %d",
		t.Settled, t.Defaulted, t.Shed, t.Refused, t.Withdrawn, t.Errors, t.Unresolved, t.Submitted)
}

// resolved checks that every acked contract was settled, defaulted or is
// counted as unresolved.
func (t tally) resolved() check {
	return checkf("awarded_all_resolved", t.Settled+t.Defaulted+t.Unresolved == t.Awarded,
		"settled %d + defaulted %d + unresolved %d != awarded %d", t.Settled, t.Defaulted, t.Unresolved, t.Awarded)
}

// check is one correctness assertion over a run's outputs.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func checkf(name string, ok bool, format string, args ...any) check {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	return c
}

// epoch is the process's clock origin; samples, marks and spans are offsets
// from it.
var epoch = time.Now()

// sample is one operation started inside the window: when it ended and how
// long it took.
type sample struct {
	end time.Duration
	us  float64
}

// mark is a slice boundary: the wall clock and the process's user+sys CPU
// at that instant.
type mark struct{ at, cpu time.Duration }

func markNow() mark { return mark{at: time.Since(epoch), cpu: cpuTime()} }

// slice is one stretch of the window with the operations that ended in it.
// Latency and CPU per operation are medians over a run's slices, so a noisy
// second on a shared machine moves one slice and not the result.
type slice struct {
	ops  int
	wall time.Duration
	cpu  time.Duration
	lat  []float64 // µs per operation
}

// slicesOf cuts samples at marks; marks[0] opens the window. An operation
// that ended after the last mark belongs to no slice.
func slicesOf(marks []mark, samples []sample) []slice {
	out := make([]slice, len(marks)-1)
	for i := range out {
		out[i].wall = marks[i+1].at - marks[i].at
		out[i].cpu = marks[i+1].cpu - marks[i].cpu
	}
	for _, smp := range samples {
		i := sort.Search(len(marks), func(i int) bool { return marks[i].at >= smp.end }) - 1
		if i >= 0 && i < len(out) {
			out[i].ops++
			out[i].lat = append(out[i].lat, smp.us)
		}
	}
	return out
}

// outcome is what one run measured, before it is turned into metrics.
type outcome struct {
	setup   []float64 // seconds, one per set-up repetition
	slices  []slice
	offered float64 // Σ value of the bids a client tried to place
	yield   float64 // Σ final settlement price
	tally   tally
	checks  []check
	cells   []simCell          // sim_fig3_slice only: each cell's exact outputs
	layers  map[string]float64 // per-layer values, traced runs only
	inputs  layerInputs        // what the direct-call timings replay
	spans   []span             // traced runs only
}

// overSlices is the median over the run's slices of f.
func (o *outcome) overSlices(f func(slice) float64) float64 {
	xs := make([]float64, len(o.slices))
	for i, s := range o.slices {
		xs[i] = f(s)
	}
	return median(xs)
}

// opsPerSec is the window's whole throughput. (On the open loop it is the
// offered rate unless the fleet falls behind; the slices' own rates there
// only mirror the trace's bursts.)
func (o *outcome) opsPerSec() float64 {
	ops, wall := o.totals()
	return ratio(float64(ops), wall.Seconds())
}

func (o *outcome) latency(q float64) float64 {
	return o.overSlices(func(s slice) float64 { return quantile(s.lat, q) })
}

func (o *outcome) cpuPerOp() float64 {
	return o.overSlices(func(s slice) float64 { return ratio(micros(s.cpu), float64(s.ops)) })
}

// totals sums the slices: operations and wall time inside the window.
func (o *outcome) totals() (ops int, wall time.Duration) {
	for _, s := range o.slices {
		ops += s.ops
		wall += s.wall
	}
	return ops, wall
}

// failedChecks counts the correctness checks that missed.
func (o *outcome) failedChecks() int {
	n := 0
	for _, c := range o.checks {
		if !c.OK {
			n++
		}
	}
	return n
}

// phase gates the closed loops: operations started in phaseMeasure are the
// window's samples.
const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseStop
)

// window runs warm-up then the measured window around whatever loops watch
// ph, with the probe (if any) open for exactly the window, and returns the
// window's slice marks.
func window(cfg runConfig, ph *atomic.Int32, p *probe) []mark {
	time.Sleep(cfg.warmup())
	p.open()
	ph.Store(phaseMeasure)
	marks := sliceMarks(cfg.window, 10)
	ph.Store(phaseStop)
	p.close()
	return marks
}

// sliceMarks sleeps through a window of k equal slices, marking each
// boundary.
func sliceMarks(window time.Duration, k int) []mark {
	marks := []mark{markNow()}
	for i := 0; i < k; i++ {
		time.Sleep(window / time.Duration(k))
		marks = append(marks, markNow())
	}
	return marks
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads this process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func gcPause() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public API. Spans of one bid share its ID; Parent names the
// enclosing span of the same bid.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the process's epoch
	EndNS   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
	Bid     uint64 `json:"bid"`
}

// spanLog is one goroutine's spans; a nil log (tracing off) records nothing.
type spanLog struct{ spans []span }

func (l *spanLog) add(name, parent string, bid uint64, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{Name: name, Parent: parent, Bid: bid,
		StartNS: int64(start.Sub(epoch)), EndNS: int64(end.Sub(epoch))})
}

// tracing hands each goroutine its own span log and joins them at the end,
// so recording takes no lock on the measured path.
type tracing struct {
	mu   sync.Mutex
	logs []*spanLog
}

func newTracing(on bool) *tracing {
	if !on {
		return nil
	}
	return &tracing{}
}

func (t *tracing) log() *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

func (t *tracing) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.logs {
		out = append(out, l.spans...)
	}
	return out
}

// spanStats folds the spans named name that started inside [from, to).
func spanStats(spans []span, name string, from, to int64) (count int, busy time.Duration, durs []float64) {
	for _, s := range spans {
		if s.Name != name || s.StartNS < from || s.StartNS >= to {
			continue
		}
		d := time.Duration(s.EndNS - s.StartNS)
		count++
		busy += d
		durs = append(durs, micros(d))
	}
	return count, busy, durs
}

// lockedBuffer is the in-memory sink for a server's obs.Tracer.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// scrape is one reading of a registry, the benchmark's view of the counters
// it handed to the servers. (obs has no Totals accessor; the exposition
// writer and its parser are the public way in.)
type scrape []obs.PromFamily

func scrapeOf(reg *obs.Registry) scrape {
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		return nil
	}
	fams, err := obs.ParsePrometheus(&b)
	if err != nil {
		return nil
	}
	return fams
}

// sum adds every sample of series name whose labels include all of kv
// ("label", "value" pairs), across sites.
func (s scrape) sum(name string, kv ...string) float64 {
	var total float64
	for _, f := range s {
		for _, smp := range f.Samples {
			if smp.Name != name {
				continue
			}
			match := true
			for i := 0; i+1 < len(kv); i += 2 {
				if smp.Labels[kv[i]] != kv[i+1] {
					match = false
					break
				}
			}
			if match {
				total += smp.Value
			}
		}
	}
	return total
}

// counters is the growth of a registry over the window.
type counters struct{ from, to scrape }

func (c counters) delta(name string, kv ...string) float64 {
	return c.to.sum(name, kv...) - c.from.sum(name, kv...)
}
