package repro

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/task"
	"repro/internal/wire"
)

// siteProc is a real siteserver subprocess under test control.
type siteProc struct {
	cmd      *exec.Cmd
	addr     string
	diagAddr string
}

var listenRe = regexp.MustCompile(`listening on (\S+)`)
var diagRe = regexp.MustCompile(`diagnostics on http://(\S+)/metrics`)

// startSiteProc launches the compiled siteserver and waits for its listen
// (and diagnostics) address lines.
func startSiteProc(t *testing.T, bin string, args ...string) *siteProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &siteProc{cmd: cmd}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	wantDiag := false
	for _, a := range args {
		if a == "-metrics-addr" {
			wantDiag = true
		}
	}
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if m := listenRe.FindStringSubmatch(line); m != nil {
				p.addr = m[1]
			}
			if m := diagRe.FindStringSubmatch(line); m != nil {
				p.diagAddr = m[1]
			}
			if p.addr != "" && (!wantDiag || p.diagAddr != "") {
				ready <- nil
				// Keep draining so the child never blocks on a full pipe.
				for sc.Scan() {
				}
				return
			}
		}
		ready <- fmt.Errorf("siteserver exited before reporting its address")
	}()
	select {
	case err := <-ready:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("siteserver never reported its listen address")
	}
	return p
}

// TestCrashRecoverySIGKILL is the crash harness: a real siteserver process
// is SIGKILLed mid-load and restarted on the same data directory. The
// client's ledger and the recovered site's contract book must reconcile —
// every placed contract ends settled or explicitly defaulted with a penalty
// record, none is unknown or stuck open. With CRASH_METRICS_OUT set, the
// recovered server's /metrics scrape (including the site_recovery_* and
// site_contracts_* families) is written there for the CI artifact.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := filepath.Join(t.TempDir(), "siteserver")
	build := exec.Command("go", "build", "-o", bin, "./cmd/siteserver")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building siteserver: %v", err)
	}

	// The harness negotiates the binary codec on both the pre-crash and
	// recovered connections: crash recovery, settlement push, and ledger
	// reconciliation must all hold on the v2 wire exactly as on the v1
	// JSON path.
	dataDir := t.TempDir()
	common := []string{
		"-procs", "2", "-timescale", "2ms", "-admission", "accept-all",
		"-data-dir", dataDir, "-fsync", "always", "-quiet",
	}
	p1 := startSiteProc(t, bin, append([]string{"-addr", "127.0.0.1:0"}, common...)...)

	c, err := wire.DialConfig(p1.addr, wire.ClientConfig{Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.NegotiatedCodec(); got != wire.CodecBinary {
		t.Fatalf("negotiated %q, want %q", got, wire.CodecBinary)
	}
	var mu sync.Mutex
	settledBefore := map[task.ID]float64{}
	c.SetOnSettled(func(e wire.Envelope) {
		mu.Lock()
		settledBefore[e.TaskID] = e.FinalPrice
		mu.Unlock()
	})

	// A mixed book: short tasks that settle before the kill, long runs that
	// are in flight at the kill, queued tasks behind them, and one bounded
	// task whose deadline cannot survive the outage.
	const n = 12
	placed := map[task.ID]market.ServerBid{}
	for i := 1; i <= n; i++ {
		runtime := 40 + float64(i%4)*120 // 80ms..700ms of wall clock
		bid := market.Bid{
			TaskID:  task.ID(i),
			Runtime: runtime,
			Value:   runtime * 10,
			Decay:   0.1,
			Bound:   math.Inf(1),
		}
		if i == n {
			bid.Runtime, bid.Value, bid.Decay, bid.Bound = 50, 100, 20, 40
		}
		sb, ok, err := c.Propose(bid)
		if err != nil || !ok {
			t.Fatalf("propose %d: %v %v", i, ok, err)
		}
		terms, ok, err := c.Award(bid, sb)
		if err != nil || !ok {
			t.Fatalf("award %d: %v %v", i, ok, err)
		}
		placed[bid.TaskID] = terms
	}

	// Let some short tasks settle, then kill mid-load with the queue still
	// deep and runs in flight.
	time.Sleep(250 * time.Millisecond)
	if err := p1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = p1.cmd.Process.Wait()
	c.Close()

	// Simulated outage, long enough to expire the bounded contract.
	time.Sleep(100 * time.Millisecond)

	flightPath := filepath.Join(t.TempDir(), "flight.json")
	p2 := startSiteProc(t, bin,
		append([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
			"-crash-regime", "requeue", "-flight-out", flightPath}, common...)...)
	c2, err := wire.DialConfig(p2.addr, wire.ClientConfig{Codec: wire.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	settledAfter := map[task.ID]float64{}
	settlements := make(chan wire.Envelope, n)
	c2.SetOnSettled(func(e wire.Envelope) { settlements <- e })

	// Reconcile the ledger: every placed contract must be accounted for.
	defaulted := map[task.ID]float64{}
	waiting := map[task.ID]bool{}
	for id := range placed {
		st, err := c2.Query(id)
		if err != nil {
			t.Fatalf("query %d: %v", id, err)
		}
		switch st.State {
		case wire.ContractSettled:
			settledAfter[id] = st.FinalPrice
		case wire.ContractDefaulted:
			defaulted[id] = st.FinalPrice
			if st.FinalPrice > 0 {
				t.Errorf("contract %d defaulted with positive price %v", id, st.FinalPrice)
			}
		case wire.ContractOpen:
			waiting[id] = true // query re-subscribed us to its settlement
		default:
			t.Errorf("contract %d in state %q: silently lost", id, st.State)
		}
	}
	mu.Lock()
	for id := range settledBefore {
		// Settlements pushed before the kill must also be on the recovered
		// books (they were journaled before the push).
		if _, ok := settledAfter[id]; !ok {
			t.Errorf("pre-crash settlement of %d missing from recovered book", id)
		}
	}
	mu.Unlock()

	deadline := time.After(60 * time.Second)
	for len(waiting) > 0 {
		select {
		case e := <-settlements:
			if !waiting[e.TaskID] {
				break
			}
			delete(waiting, e.TaskID)
			settledAfter[e.TaskID] = e.FinalPrice
		case <-deadline:
			t.Fatalf("recovered contracts never settled: %v", waiting)
		}
	}

	if len(settledAfter)+len(defaulted) != n {
		t.Fatalf("reconciliation: %d settled + %d defaulted != %d placed",
			len(settledAfter), len(defaulted), n)
	}
	if _, ok := defaulted[task.ID(n)]; !ok {
		t.Errorf("bounded contract %d should have defaulted during the outage", n)
	}

	// Scrape the recovered server's metrics: the recovery families must be
	// populated, and the scrape is the CI run's recovery artifact.
	resp, err := http.Get("http://" + p2.diagAddr + "/metrics")
	if err != nil {
		t.Fatalf("scraping metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, want := range []string{
		"site_recovery_seconds", "site_recovery_records_replayed",
		"site_contracts_recovered_total", "site_contracts_defaulted_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("recovered /metrics missing %s", want)
		}
	}
	if out := os.Getenv("CRASH_METRICS_OUT"); out != "" {
		if err := os.WriteFile(out, body, 0o644); err != nil {
			t.Errorf("writing CRASH_METRICS_OUT: %v", err)
		}
	}

	// The recovered server's economic ledger must reconcile with the
	// client's view of the same book: every placed contract is on it
	// (journal-seeded for pre-crash closures, re-opened for survivors),
	// every one ended settled or defaulted, no settlement arrived for a
	// contract the ledger never opened, and per-task realized yields match
	// the prices the client saw.
	lresp, err := http.Get("http://" + p2.diagAddr + "/debug/ledger")
	if err != nil {
		t.Fatalf("fetching ledger: %v", err)
	}
	lbody, err := io.ReadAll(lresp.Body)
	lresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.LedgerSnapshot
	if err := json.Unmarshal(lbody, &snap); err != nil {
		t.Fatalf("decoding ledger: %v", err)
	}
	if snap.Totals.UnknownSettles != 0 {
		t.Errorf("ledger booked %d settlements with no matching award", snap.Totals.UnknownSettles)
	}
	if snap.Totals.Opened != n {
		t.Errorf("ledger opened %d contracts, want all %d placed", snap.Totals.Opened, n)
	}
	if snap.Totals.Settled+snap.Totals.Defaulted != n || snap.Totals.Open != 0 {
		t.Errorf("ledger totals %+v: want %d settled+defaulted, none open", snap.Totals, n)
	}
	byTask := map[task.ID]obs.LedgerEntry{}
	for _, e := range snap.Entries {
		byTask[task.ID(e.Task)] = e
	}
	for id, price := range settledAfter {
		e, ok := byTask[id]
		if !ok {
			t.Errorf("settled contract %d missing from the ledger", id)
			continue
		}
		if e.Outcome != obs.OutcomeSettled || math.Abs(e.RealizedYield-price) > 1e-9 {
			t.Errorf("ledger entry %d = %q/%v, client saw settled/%v", id, e.Outcome, e.RealizedYield, price)
		}
	}
	for id, price := range defaulted {
		e, ok := byTask[id]
		if !ok {
			t.Errorf("defaulted contract %d missing from the ledger", id)
			continue
		}
		if e.Outcome != obs.OutcomeDefaulted || math.Abs(e.RealizedYield-price) > 1e-9 {
			t.Errorf("ledger entry %d = %q/%v, client saw defaulted/%v", id, e.Outcome, e.RealizedYield, price)
		}
	}

	// SIGUSR1 dumps the flight recorder (timeseries + ledger) without
	// stopping the server; the dump is the chaos job's CI artifact.
	if err := p2.cmd.Process.Signal(syscall.SIGUSR1); err != nil {
		t.Fatalf("signaling SIGUSR1: %v", err)
	}
	var dump obs.FlightDump
	dumpDeadline := time.Now().Add(10 * time.Second)
	for {
		raw, err := os.ReadFile(flightPath)
		if err == nil && json.Unmarshal(raw, &dump) == nil && len(dump.Timeseries) > 0 {
			break
		}
		if time.Now().After(dumpDeadline) {
			t.Fatalf("flight dump never appeared at %s (last error: %v)", flightPath, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if dump.Ledger.Totals.Opened != n {
		t.Errorf("flight dump ledger opened %d, want %d", dump.Ledger.Totals.Opened, n)
	}
	last := dump.Timeseries[len(dump.Timeseries)-1]
	if last.Values["site_contracts_recovered_total"] <= 0 {
		t.Errorf("flight timeseries never sampled the recovery counters: %v", last.Values)
	}
	if out := os.Getenv("CRASH_LEDGER_OUT"); out != "" {
		if err := os.WriteFile(out, lbody, 0o644); err != nil {
			t.Errorf("writing CRASH_LEDGER_OUT: %v", err)
		}
	}
	if out := os.Getenv("CRASH_TIMESERIES_OUT"); out != "" {
		raw, err := os.ReadFile(flightPath)
		if err == nil {
			err = os.WriteFile(out, raw, 0o644)
		}
		if err != nil {
			t.Errorf("writing CRASH_TIMESERIES_OUT: %v", err)
		}
	}
}
