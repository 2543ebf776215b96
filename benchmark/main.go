// Command benchmark is the repo's one benchmark: four named workloads that
// drive the real layers through their public APIs, end-to-end metrics with
// regression bounds, a traced run that splits each workload by layer, and
// correctness checks in the same command. BENCHMARK.json at the repo root
// describes it to the driver; README.md in this directory explains it.
//
//	go run ./benchmark                      every workload, end-to-end metrics
//	go run ./benchmark -trace 1             every workload, per-layer metrics + span files
//	go run ./benchmark -workload fleet_bursty -seed 8 -seconds 10
//	go run ./benchmark -repeat 3            spread of every metric against its bound
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloadDef is one named traffic mix.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	op   string // what ops_per_s, op_p50_us, op_p95_us and cpu_us_per_op count
	run  func(runConfig) (*outcome, error)
	// obsCost makes the traced run also measure what Metrics and Ledger
	// cost, on the workload where the ledger books every operation.
	obsCost bool
}

var workloads = []workloadDef{
	{Name: "site_quote_overload", op: "quote", run: runSiteQuoteOverload,
		Why: "closed loop, mostly pure quotes against a book that slack admission keeps deep: wire codec, lock-free snapshot quoting and insertion cost at depth; the journal is almost idle"},
	{Name: "site_award_durable", op: "award", run: runSiteAwardDurable, obsCost: true,
		Why: "closed loop, propose+award for every bid on a near-empty book: group-commit fsync, dispatch, settlement push and ledger dominate; quoting costs nothing"},
	{Name: "fleet_bursty", op: "bid", run: runFleetBursty,
		Why: "open loop, 400 bids/s of bursty cohorts, 8 sites behind a top-2 digest-routed broker, timed from each bid's due time: routing, the extra hop, burst queueing; fixed offered load"},
	{Name: "sim_fig3_slice", op: "sim_task", run: runSimFig3Slice,
		Why: "batch, Figure 3's preemptive-restart cells under the virtual clock: ranking and preemption only, no wire and no disk, so wire and durable changes must leave it flat"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// environment is reported with every result.
type environment struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	JournalFS  string  `json:"journal_fs"`
	Topology   string  `json:"topology"`
	Conns      int     `json:"client_connections"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
	Traced     bool    `json:"traced"`
}

// result is one workload's run as the child process reports it.
type result struct {
	Workload  string           `json:"workload"`
	Op        string           `json:"op"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Samples   int              `json:"samples"` // latency samples behind op_p50_us / op_p95_us
	Tally     tally            `json:"tally"`
	Checks    []check          `json:"checks"`
	Cells     []simCell        `json:"sim_cells,omitempty"`
	SpanFile  string           `json:"span_file,omitempty"`
	Env       environment      `json:"environment"`
}

// contractLine is the last line of standard output for one workload, the
// shape the driver reads.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// workDir holds journals and span files; it is inside the checkout and
// ignored by git.
const workDir = ".bench_work"

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all four)")
		seed    = flag.Int64("seed", 7, "seeds workload.Generate; servers only ever see generated bids")
		seconds = flag.Float64("seconds", 15, "measured window per workload, warm-up and drain come on top")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes the span file")
		repeat  = flag.Int("repeat", 1, "run the set N times and print each metric's spread against its bound")
		outPath = flag.String("out", "", "also write the full report (results, checks, environment) as JSON here")
		golden  = flag.Bool("write-golden", false, "regenerate golden/sim_fig3_slice.json at -seed (12 cells)")
		child   = flag.Bool("child", false, "internal: run -workload in this process and print its result as JSON")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-repeat n] [-out file]")
		os.Exit(2)
	}
	window := time.Duration(*seconds * float64(time.Second))
	var err error
	switch {
	case *child:
		err = childMain(*name, *seed, window, *trace == 1)
	case *golden:
		err = writeGolden(*seed)
	default:
		err = parentMain(*name, *seed, window, *trace == 1, *repeat, *outPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// clientConns sizes the load: min(nproc, 4) connections. One core cannot
// run a client and a server at once, so it is an error, never a skip.
func clientConns() (int, error) {
	n := runtime.NumCPU()
	if n < 2 {
		return 0, fmt.Errorf("needs at least 2 CPUs (have %d): clients and servers share the machine", n)
	}
	return min(n, 4), nil
}

// childMain runs one workload in this (fresh) process and prints its result.
func childMain(name string, seed int64, window time.Duration, traced bool) error {
	def, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	conns, err := clientConns()
	if err != nil {
		return err
	}
	dir := filepath.Join(workDir, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{seed: seed, window: window, traced: traced, conns: conns, dir: dir, sizes: fullSizes}
	res, spans, err := measure(def, cfg)
	if err != nil {
		return err
	}
	if traced {
		res.SpanFile = filepath.Join(workDir, "spans-"+name+".jsonl")
		if err := writeSpans(res.SpanFile, spans); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// measure runs def under cfg and turns the outcome into a result: the
// end-to-end metrics on an untraced run, the per-layer ones on a traced run.
func measure(def workloadDef, cfg runConfig) (*result, []span, error) {
	out, err := def.run(cfg)
	if err != nil {
		return nil, nil, err
	}
	vals := map[string]float64{}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
		if vals, err = layerMetrics(def, cfg, out); err != nil {
			return nil, nil, err
		}
	} else {
		vals["setup_s"] = median(out.setup)
		vals["ops_per_s"] = out.opsPerSec()
		vals["op_p50_us"] = out.latency(0.50)
		vals["op_p95_us"] = out.latency(0.95)
		vals["yield_fraction"] = ratio(out.yield, out.offered)
		vals["cpu_us_per_op"] = out.cpuPerOp()
		vals["peak_rss_mb"] = peakRSSMB()
	}
	metrics, stray := fill(defs, vals)
	if len(stray) > 0 {
		return nil, nil, fmt.Errorf("%s produced metrics no table names: %v", def.Name, stray)
	}
	ops, _ := out.totals()
	res := &result{
		Workload:  def.Name,
		Op:        def.op,
		Correct:   out.failedChecks() == 0,
		Attempted: out.tally.Submitted,
		// Failed operations: RPC errors, contracts unresolved at the drain
		// deadline, and failed checks.
		Failed:  out.tally.Errors + out.tally.Unresolved + out.failedChecks(),
		Metrics: metrics,
		Samples: ops,
		Tally:   out.tally,
		Checks:  out.checks,
		Cells:   out.cells,
		Env:     describe(cfg),
	}
	return res, out.spans, nil
}

// layerMetrics completes a traced run's per-layer values: the direct-call
// timings on the run's own inputs, what tracing and the registries cost
// against untraced reference runs of the same window (the same cells, on
// the simulator), and the share of the end-to-end median no measured layer
// accounts for.
func layerMetrics(def workloadDef, cfg runConfig, out *outcome) (map[string]float64, error) {
	l := out.layers
	direct, err := directLayers(out.inputs)
	if err != nil {
		return nil, err
	}
	for k, v := range direct {
		l[k] = v
	}
	ref := cfg
	ref.traced, ref.sizes.setupReps = false, 1
	plain, err := def.run(ref)
	if err != nil {
		return nil, err
	}
	// Shares of CPU per operation, which also moves on the open loop where
	// the throughput is the offered rate whatever tracing costs.
	l["obs.trace_overhead_share"] = 1 - ratio(plain.cpuPerOp(), out.cpuPerOp())
	if def.obsCost {
		ref.bare = true
		bare, err := def.run(ref)
		if err != nil {
			return nil, err
		}
		l["obs.metrics_ledger_cost_share"] = 1 - ratio(bare.cpuPerOp(), plain.cpuPerOp())
	}
	if a := l["wire.client.award_p50_us"]; a > 0 {
		l["durable.sync_share_of_award"] = l["durable.append_sync_us_wc"] / a
	}
	l["budget.unattributed_share"] = 1 - ratio(attributed(def, l), out.latency(0.50))
	return l, nil
}

// attributed sums, in microseconds, the measured layer medians that lie on
// one operation's blocking path. What is left of the end-to-end median is
// syscalls, scheduling, locks and queueing between the layers: the part
// only in-program tracing can explain.
func attributed(def workloadDef, l map[string]float64) float64 {
	quoteCodec := (l["wire.codec.bid_encode_ns"] + l["wire.codec.bid_decode_ns"] +
		l["wire.codec.serverbid_encode_ns"] + l["wire.codec.serverbid_decode_ns"]) / 1e3
	// An award frame is a bid frame plus terms and a contract frame is a
	// server bid under another type, so the unmeasured halves of the award's
	// trip are taken from their twins.
	awardCodec := (l["wire.codec.award_encode_ns"] + l["wire.codec.bid_decode_ns"] +
		l["wire.codec.serverbid_encode_ns"] + l["wire.codec.contract_decode_ns"]) / 1e3
	quote := quoteCodec + l["core.with_task_us"] + l["admission.evaluate_insertion_us"]
	award := awardCodec + l["core.with_task_us"] + l["admission.evaluate_insertion_us"] + l["core.plan_starts_us"]
	switch def.op {
	case "quote":
		return quote
	case "award":
		return award + l["durable.append_sync_us_wc"]
	case "bid":
		// Two hops each way for the quote and for the award, one fsync.
		return 2*quote + 2*award + l["durable.append_sync_us_w1"]
	default:
		// sim_task: a simulated task is one RunTrace call to the benchmark's
		// spans; how its time splits into ranking, preemption and the event
		// heap is not visible from outside, so nothing is attributed.
		return 0
	}
}

func describe(cfg runConfig) environment {
	return environment{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Kernel:     kernelRelease(),
		JournalFS:  fsType(cfg.dir),
		Topology:   "loopback, in-process servers",
		Conns:      cfg.conns,
		Seed:       cfg.seed,
		WindowS:    cfg.window.Seconds(),
		WarmupS:    cfg.warmup().Seconds(),
		Traced:     cfg.traced,
	}
}

func kernelRelease() string {
	raw, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(raw))
}

// fsType names the filesystem under dir by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runChild runs one workload in a fresh process of this binary, so every
// workload starts with a cold heap and its own VmHWM.
func runChild(name string, seed int64, window time.Duration, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(window.Seconds()), "-trace", traceArg)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var res result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("%s: child report: %w", name, err)
	}
	return &res, nil
}

// report is the -out file: every run made, in order.
type report struct {
	GeneratedUnix int64     `json:"generated_unix"`
	Results       []*result `json:"results"`
}

func parentMain(name string, seed int64, window time.Duration, traced bool, repeat int, outPath string) error {
	names := []string{name}
	if name == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := workloadByName(name); !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	rep := report{GeneratedUnix: time.Now().Unix()}
	bad := 0
	for round := 0; round < repeat; round++ {
		for _, n := range names {
			res, err := runChild(n, seed, window, traced)
			if err != nil {
				return err
			}
			rep.Results = append(rep.Results, res)
			printResult(res)
			if !res.Correct || res.Failed > 0 {
				bad++
			}
		}
	}
	if outPath != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	var errs []error
	if bad > 0 {
		errs = append(errs, fmt.Errorf("%d runs failed a correctness check or an operation", bad))
	}
	if repeat > 1 {
		if over := printSpread(rep.Results); over > 0 {
			errs = append(errs, fmt.Errorf("%d metrics spread wider than their bound over %d runs", over, repeat))
		}
	}
	return errors.Join(errs...)
}

// printResult prints one workload's metrics as "workload metric value unit"
// lines, its checks and environment, and last the driver's JSON line.
func printResult(res *result) {
	defs := endToEnd
	if res.Env.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%s %s %.6g %s\n", res.Workload, d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Printf("%s failed_share %.6g ratio\n", res.Workload, ratio(float64(res.Failed), float64(res.Attempted)))
	fmt.Printf("# %s: op=%s samples=%d tally=%+v\n", res.Workload, res.Op, res.Samples, res.Tally)
	for _, c := range res.Checks {
		state := "ok"
		if !c.OK {
			state = "FAILED " + c.Detail
		}
		fmt.Printf("# %s: check %s %s\n", res.Workload, c.Name, state)
	}
	e := res.Env
	fmt.Printf("# %s: %s nproc=%d gomaxprocs=%d kernel=%s journal_fs=%s %s conns=%d seed=%d window=%gs warmup=%gs\n",
		res.Workload, e.GoVersion, e.NumCPU, e.GoMaxProcs, e.Kernel, e.JournalFS, e.Topology, e.Conns, e.Seed, e.WindowS, e.WarmupS)
	if res.SpanFile != "" {
		fmt.Printf("# %s: spans written to %s\n", res.Workload, res.SpanFile)
	}
	line, _ := json.Marshal(contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	fmt.Println(string(line))
}

// printSpread prints, per workload and metric, min/median/max over the
// repeated runs and the relative spread (max-min over the median), and
// returns how many bounded metrics spread wider than their bound.
func printSpread(results []*result) (over int) {
	byWorkload := map[string][]*result{}
	var order []string
	for _, r := range results {
		if _, seen := byWorkload[r.Workload]; !seen {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	defs := endToEnd
	if results[0].Env.Traced {
		defs = perLayer
	}
	fmt.Printf("# spread over %d runs: workload metric min median max spread bound\n", len(byWorkload[order[0]]))
	for _, w := range order {
		for _, d := range defs {
			var xs []float64
			for _, r := range byWorkload[w] {
				xs = append(xs, r.Metrics[d.Name].Value)
			}
			sort.Float64s(xs)
			med := median(xs)
			spread := ratio(xs[len(xs)-1]-xs[0], med)
			verdict := ""
			if d.Bound > 0 && spread > d.Bound {
				verdict = " OVER"
				over++
			}
			fmt.Printf("# spread %s %s %.6g %.6g %.6g %.4f %.2f%s\n", w, d.Name, xs[0], med, xs[len(xs)-1], spread, d.Bound, verdict)
		}
	}
	return over
}

// writeGolden runs the first twelve cells of the simulation grid at seed
// and writes their exact outputs to golden/sim_fig3_slice.json.
func writeGolden(seed int64) error {
	const cells = 12
	res, err := runChild("sim_fig3_slice", seed, time.Duration(float64(cells)*secondsPerCell*float64(time.Second)), false)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(simGolden{Seed: seed, Jobs: fullSizes.simJobs, Cells: res.Cells}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("benchmark", "golden", "sim_fig3_slice.json"), append(raw, '\n'), 0o644)
}
