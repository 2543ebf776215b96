// Command brokerd runs a standalone negotiation broker (Figure 1): clients
// submit bids to the broker exactly as they would to a site, and the
// broker quotes each bid at its configured task-service sites, selects
// the best server bid, passes the award to that site, and relays
// settlements. Brokers share no state: several may front the same sites,
// and a client whose broker dies dials another one and recovers its
// running contracts there by query.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/wire"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7700", "listen address for clients")
		sites     = flag.String("sites", "127.0.0.1:7600", "comma-separated site addresses")
		selector  = flag.String("selector", "best-yield", "server-bid selector spec: best-yield|earliest")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-request timeout against each site")
		retries   = flag.Int("retries", 2, "per-site retries on transient failures (negative disables)")
		backoff   = flag.Duration("backoff", 50*time.Millisecond, "first retry delay, doubling per attempt")
		workers   = flag.Int("quote-workers", 0, "max sites quoted concurrently per exchange (0 = default of 8)")
		codec     = flag.String("codec", "", "codec to request when dialing sites: json|binary (empty = binary)")
		topk      = flag.Int("topk", 4, "quote only the k sites ranked best by their load digests (0 = full fan-out: quote every breaker-admitted site)")
		digestInt = flag.Duration("digest-interval", 0, "load-digest push cadence requested from sites (0 = default of 250ms)")
		cbFails   = flag.Int("circuit-failures", 0, "consecutive site failures that trip its circuit breaker open (0 = default of 3, negative disables)")
		cbCool    = flag.Duration("circuit-cooldown", 0, "open-breaker wait before a half-open probe (0 = default of 1s)")
		retryBud  = flag.Float64("retry-budget", 0, "retry credit earned per successful site exchange (0 = default of 0.25, negative = unlimited blind retry)")
		hedge     = flag.Duration("hedge-delay", 0, "hedged-quote delay per site (0 = adaptive from latency quantiles, negative disables hedging)")
		parked    = flag.Int("parked-settlements", 0, "settlements parked for disconnected owners, recoverable by query (0 = default of 64, negative disables)")
		idle      = flag.Duration("idle-timeout", 2*time.Minute, "close client connections quiet for this long (negative disables)")
		quiet     = flag.Bool("quiet", false, "suppress brokering logs")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
		metrics   = flag.String("metrics-addr", "", "serve /metrics, /healthz, and /debug/pprof on this address (empty disables)")
		trace     = flag.Bool("trace", false, "emit task-lifecycle trace events (JSON) to stderr alongside logs")
		flightOut = flag.String("flight-out", "", "write the flight-recorder timeseries dump here on SIGUSR1 and at exit (empty disables the file; the recorder itself always runs)")
		flightInt = flag.Duration("flight-interval", obs.DefaultFlightInterval, "flight-recorder sampling interval")
	)
	flag.Parse()

	sel, err := market.ParseSelector(*selector)
	if err != nil {
		fmt.Fprintln(os.Stderr, "brokerd:", err)
		os.Exit(2)
	}
	lv, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "brokerd:", err)
		os.Exit(2)
	}

	route := wire.RouteTopK
	if *topk <= 0 {
		// k=0 means "quote everyone" — exactly fan-out.
		route = wire.RouteFanout
	}

	cfg := wire.BrokerConfig{
		Selector:          sel,
		RequestTimeout:    *timeout,
		Retries:           *retries,
		Backoff:           *backoff,
		QuoteWorkers:      *workers,
		IdleTimeout:       *idle,
		Metrics:           obs.Default,
		SiteCodec:         *codec,
		Route:             route,
		TopK:              *topk,
		DigestInterval:    *digestInt,
		CircuitFailures:   *cbFails,
		CircuitCooldown:   *cbCool,
		RetryBudget:       *retryBud,
		HedgeDelay:        *hedge,
		ParkedSettlements: *parked,
	}
	for _, sa := range strings.Split(*sites, ",") {
		cfg.SiteAddrs = append(cfg.SiteAddrs, strings.TrimSpace(sa))
	}
	logger := obs.NewLogger(os.Stderr, lv, "brokerd")
	if !*quiet {
		cfg.Logger = logger
	}
	if *trace {
		if cfg.Logger != nil {
			cfg.Tracer = obs.TracerFor(cfg.Logger, "brokerd")
		} else {
			cfg.Tracer = obs.NewTracer(os.Stderr, "brokerd")
		}
	}

	// The flight recorder samples every registered family on a fixed
	// interval; /debug/timeseries serves the ring, SIGUSR1 dumps it.
	flight := obs.NewFlight(obs.FlightConfig{Registry: obs.Default, Interval: *flightInt})
	defer flight.Stop()

	b, err := wire.NewBrokerServer(*addr, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "brokerd:", err)
		os.Exit(1)
	}
	if *metrics != "" {
		diag, err := obs.ServeDiag(*metrics, obs.DiagConfig{Logger: logger, Flight: flight})
		if err != nil {
			fmt.Fprintln(os.Stderr, "brokerd:", err)
			os.Exit(1)
		}
		defer diag.Close()
		fmt.Printf("diagnostics on http://%s/metrics\n", diag.Addr())
	}
	fmt.Printf("broker listening on %s for %d site(s), route=%s", b.Addr(), len(cfg.SiteAddrs), cfg.Route)
	if cfg.Route == wire.RouteTopK {
		fmt.Printf(" k=%d", cfg.TopK)
	}
	fmt.Println()

	dump := func(why string) {
		if *flightOut == "" {
			return
		}
		if err := obs.WriteFlightDump(*flightOut, flight, nil); err != nil {
			logger.Warn("flight dump failed", "path", *flightOut, "err", err.Error())
			return
		}
		fmt.Printf("flight dump (%s) written to %s\n", why, *flightOut)
	}

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
	_ = b.Close()
	dump("shutdown")
}
