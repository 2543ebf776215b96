// Command sitesim replays a trace file (from tracegen) through a single
// simulated task-service site and reports the outcome: total yield, yield
// rate, acceptance, delays.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/admission"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/site"
	"repro/internal/task"
	"repro/internal/workload"
)

func main() {
	var (
		in        = flag.String("trace", "", "trace file from tracegen (required)")
		procs     = flag.Int("procs", 0, "processors (default: trace's spec)")
		policy    = flag.String("policy", "firstprice", "policy spec: fcfs|srpt|swpt|firstprice|pv[:rate=]|firstreward[:alpha=,rate=]|scheduledprice[:procs=,rounds=]")
		adm       = flag.String("admission", "", "admission spec: accept-all|slack[:threshold=]|min-yield[:threshold=] (empty: accept-all)")
		discount  = flag.Float64("discount", 0.01, "discount rate for admission slack quoting")
		preempt   = flag.Bool("preempt", false, "enable preemption")
		restart   = flag.Bool("restart", false, "preemption loses progress")
		report    = flag.Bool("report", false, "print the per-class distributional report")
		byCohort  = flag.Bool("by-cohort", false, "print per-cohort outcomes (trace-v2 cohort labels)")
		traceOut  = flag.String("trace-out", "", "write the scheduling audit log as JSON task-lifecycle events to this file (\"-\" for stderr)")
		ledgerOut = flag.String("ledger-out", "", "write the final contract-ledger snapshot as JSON to this file (\"-\" for stdout)")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "sitesim: -trace is required")
		flag.Usage()
		os.Exit(2)
	}

	tr, err := workload.ReadFile(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sitesim:", err)
		os.Exit(1)
	}

	pol, err := core.ParseSpec(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sitesim:", err)
		os.Exit(2)
	}
	admPol, err := admission.ParseSpec(*adm)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sitesim:", err)
		os.Exit(2)
	}

	p := tr.Spec.Processors
	if *procs > 0 {
		p = *procs
	}
	cfg := site.Config{
		Processors:        p,
		Policy:            pol,
		Preemptive:        *preempt,
		PreemptionRestart: *restart,
		Admission:         admPol,
		DiscountRate:      *discount,
	}
	var recorders []site.Recorder
	if *traceOut != "" {
		w := os.Stderr
		if *traceOut != "-" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sitesim:", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		recorders = append(recorders, site.NewObsRecorder(nil, obs.NewTracer(w, "sitesim"), "sitesim"))
	}
	var ledger *obs.Ledger
	if *ledgerOut != "" {
		ledger = obs.NewLedger(obs.LedgerConfig{
			Site: "sitesim", Policy: pol.Name(), Capacity: len(tr.Tasks) + 1,
		})
		recorders = append(recorders, site.NewLedgerRecorder(ledger))
	}
	var opts []site.Option
	if r := site.MultiRecorder(recorders...); r != nil {
		opts = append(opts, site.WithRecorder(r))
	}

	tasks := tr.Clone()
	m := site.RunTrace(tasks, cfg, opts...)
	if ledger != nil {
		w := os.Stdout
		if *ledgerOut != "-" {
			f, err := os.Create(*ledgerOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sitesim:", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		if err := ledger.WriteJSON(w); err != nil {
			fmt.Fprintln(os.Stderr, "sitesim:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("policy:          %s\n", pol.Name())
	fmt.Printf("admission:       %s\n", admPol.Name())
	fmt.Printf("processors:      %d\n", p)
	fmt.Printf("submitted:       %d\n", m.Submitted)
	fmt.Printf("accepted:        %d (%.1f%%)\n", m.Accepted, 100*m.AcceptanceRate())
	fmt.Printf("completed:       %d\n", m.Completed)
	fmt.Printf("preemptions:     %d\n", m.Preemptions)
	fmt.Printf("rank ops:        %d\n", m.RankOps)
	fmt.Printf("total yield:     %.2f\n", m.TotalYield)
	fmt.Printf("yield rate:      %.4f\n", m.YieldRate())
	fmt.Printf("mean delay:      %.2f\n", m.MeanDelay())
	fmt.Printf("active interval: %.1f\n", m.ActiveInterval())
	if *report {
		fmt.Println()
		analysis.Analyze(tasks).Print(os.Stdout)
		fmt.Printf("gini(yield):     %.3f\n", analysis.GiniYield(tasks))
	}
	if *byCohort {
		fmt.Println()
		printCohortReport(tasks)
	}
}

// cohortStats aggregates outcomes for one cohort label.
type cohortStats struct {
	submitted int
	completed int
	yield     float64
	delay     float64
}

// printCohortReport tabulates outcomes by the trace-v2 cohort label.
// Unlabeled (v1) tasks fall under "(none)".
func printCohortReport(tasks []*task.Task) {
	stats := map[string]*cohortStats{}
	var names []string
	for _, t := range tasks {
		name := t.Cohort
		if name == "" {
			name = "(none)"
		}
		cs := stats[name]
		if cs == nil {
			cs = &cohortStats{}
			stats[name] = cs
			names = append(names, name)
		}
		cs.submitted++
		if t.State == task.Completed {
			cs.completed++
			cs.yield += t.Yield
			cs.delay += t.Delay(t.Completion)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-16s %9s %9s %12s %10s\n", "cohort", "submitted", "completed", "yield", "meandelay")
	for _, name := range names {
		cs := stats[name]
		meanDelay := 0.0
		if cs.completed > 0 {
			meanDelay = cs.delay / float64(cs.completed)
		}
		fmt.Printf("%-16s %9d %9d %12.2f %10.2f\n", name, cs.submitted, cs.completed, cs.yield, meanDelay)
	}
}
