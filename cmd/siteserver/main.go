// Command siteserver runs one network task-service site speaking the
// Figure 1 negotiation protocol (JSON over TCP). Pair it with gridclient,
// or drive it from any newline-delimited-JSON client.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/wire"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7600", "listen address")
		id        = flag.String("id", "site-0", "site identifier")
		procs     = flag.Int("procs", 4, "processors")
		policy    = flag.String("policy", "firstreward:alpha=0.3,rate=0.01", "scheduling policy spec (see core.ParseSpec)")
		admSpec   = flag.String("admission", "slack:threshold=0", "admission policy spec (accept-all, slack:threshold=X, min-yield:threshold=X)")
		discount  = flag.Float64("discount", 0.01, "discount rate for quoting expected yield")
		scale     = flag.Duration("timescale", 10*time.Millisecond, "wall-clock duration of one simulation time unit")
		maxPend   = flag.Int("max-pending", 0, "pending-book depth cap: past it bids are shed with a priced reject (0 disables the overload valve)")
		maxBids   = flag.Int("max-inflight-bids", 0, "cap on concurrently evaluating bid quotes (0 disables)")
		idle      = flag.Duration("idle-timeout", 2*time.Minute, "close connections quiet for this long (negative disables)")
		wtimeout  = flag.Duration("write-timeout", 10*time.Second, "per-write deadline for replies and settlements (negative disables)")
		quiet     = flag.Bool("quiet", false, "suppress serving logs")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
		metrics   = flag.String("metrics-addr", "", "serve /metrics, /healthz, and /debug/pprof on this address (empty disables)")
		trace     = flag.Bool("trace", false, "emit task-lifecycle trace events (JSON) to stderr alongside logs")
		dataDir   = flag.String("data-dir", "", "journal contracts here for crash recovery (empty runs memory-only)")
		fsync     = flag.String("fsync", "always", "journal sync policy: always|interval|never")
		regime    = flag.String("crash-regime", wire.RegimeRequeue, "recovery of runs in flight at a crash: requeue|default")
		flightOut = flag.String("flight-out", "", "write the flight-recorder dump (timeseries + ledger JSON) here on SIGUSR1 and at exit (empty disables the file; the recorder itself always runs)")
		flightInt = flag.Duration("flight-interval", obs.DefaultFlightInterval, "flight-recorder sampling interval")
	)
	flag.Parse()

	lv, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "siteserver:", err)
		os.Exit(2)
	}

	pol, err := core.ParseSpec(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "siteserver:", err)
		os.Exit(2)
	}
	adm, err := admission.ParseSpec(*admSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "siteserver:", err)
		os.Exit(2)
	}

	fsyncPolicy, err := durable.ParseFsyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "siteserver:", err)
		os.Exit(2)
	}

	// The economic flight recorder: the contract ledger books every award
	// and settlement (served at /debug/ledger), and the timeseries ring
	// samples every registered family (served at /debug/timeseries).
	ledger := obs.NewLedger(obs.LedgerConfig{Site: *id, Policy: pol.Name(), Registry: obs.Default})
	flight := obs.NewFlight(obs.FlightConfig{Registry: obs.Default, Interval: *flightInt})
	defer flight.Stop()

	cfg := wire.ServerConfig{
		SiteID:          *id,
		Processors:      *procs,
		Policy:          pol,
		Admission:       adm,
		DiscountRate:    *discount,
		TimeScale:       *scale,
		MaxPending:      *maxPend,
		MaxInflightBids: *maxBids,
		IdleTimeout:     *idle,
		WriteTimeout:    *wtimeout,
		Metrics:         obs.Default,
		Ledger:          ledger,
		DataDir:         *dataDir,
		Fsync:           fsyncPolicy,
		CrashRegime:     *regime,
	}
	logger := obs.NewLogger(os.Stderr, lv, "siteserver")
	if !*quiet {
		cfg.Logger = logger
	}
	if *trace {
		// Share the logger's stream so trace and log lines interleave
		// whole; with -quiet the tracer gets its own stderr stream.
		if cfg.Logger != nil {
			cfg.Tracer = obs.TracerFor(cfg.Logger, "siteserver")
		} else {
			cfg.Tracer = obs.NewTracer(os.Stderr, "siteserver")
		}
	}

	srv, err := wire.NewServer(*addr, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "siteserver:", err)
		os.Exit(1)
	}
	if *metrics != "" {
		diag, err := obs.ServeDiag(*metrics, obs.DiagConfig{Logger: logger, Ledger: ledger, Flight: flight})
		if err != nil {
			fmt.Fprintln(os.Stderr, "siteserver:", err)
			os.Exit(1)
		}
		defer diag.Close()
		fmt.Printf("diagnostics on http://%s/metrics\n", diag.Addr())
	}
	fmt.Printf("site %s listening on %s (%d processors, %s)\n", *id, srv.Addr(), *procs, cfg.Policy.Name())
	if *dataDir != "" {
		fmt.Printf("journaling contracts to %s (fsync=%s, crash-regime=%s)\n", *dataDir, fsyncPolicy, *regime)
	}

	dump := func(why string) {
		if *flightOut == "" {
			return
		}
		if err := obs.WriteFlightDump(*flightOut, flight, ledger); err != nil {
			logger.Warn("flight dump failed", "path", *flightOut, "err", err.Error())
			return
		}
		fmt.Printf("flight dump (%s) written to %s\n", why, *flightOut)
	}

	// SIGTERM/SIGINT run the full Close path: the journal tail is flushed
	// and the clean-shutdown marker written, so the next start replays
	// without a torn-tail scan and resumes every open contract. SIGUSR1
	// dumps the flight recorder without stopping the server.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	for s := range sig {
		if s == syscall.SIGUSR1 {
			dump("SIGUSR1")
			continue
		}
		break
	}
	fmt.Println("shutting down")
	_ = srv.Close()
	dump("shutdown")
}
