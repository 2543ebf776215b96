package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json; unknown keys fail the decode.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the tables the
// command emits from in step, inside the driver's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(bf.Command, want) {
		t.Errorf("command = %v, want %v", bf.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(bf.Paths, want) {
		t.Errorf("paths = %v, want %v", bf.Paths, want)
	}
	if bf.RunSeconds < 10 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 10..60", bf.RunSeconds)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n json %+v\n code %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("workloads: json has %d, code has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %q / code %q (or their why) differ", i, bf.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}

	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
	}
	hasSetup := false
	for _, d := range endToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error(`end-to-end metrics lack setup_s (unit "s", better "lower")`)
	}
	for _, d := range perLayer {
		name(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the driver's alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload at a 200 ms window, plain
// and traced, and checks that each emits exactly the names of its table,
// passes its own correctness checks and fails no operation.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	small := sizes{traceJobs: 2048, simJobs: 300, setupReps: 1, callBudget: 2 * time.Millisecond, syncAppends: 10}
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 7, window: 200 * time.Millisecond, traced: traced,
				conns: max(2, min(runtime.NumCPU(), 4)), dir: t.TempDir(), sizes: small}
			res, spans, err := measure(def, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.Name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var want, got []string
			for _, d := range defs {
				want = append(want, d.Name)
			}
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(want)
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: emitted %v, want %v", def.Name, traced, got, want)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %s failed: %s", def.Name, traced, c.Name, c.Detail)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", def.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if traced && len(spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", def.Name)
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, must never be 0", def.Name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

// TestSlicesOf pins how samples fall into slices.
func TestSlicesOf(t *testing.T) {
	ms := time.Millisecond
	marks := []mark{{at: 10 * ms, cpu: 1 * ms}, {at: 20 * ms, cpu: 3 * ms}, {at: 30 * ms, cpu: 4 * ms}}
	samples := []sample{{end: 5 * ms, us: 1}, {end: 12 * ms, us: 2}, {end: 20 * ms, us: 3}, {end: 29 * ms, us: 4}, {end: 31 * ms, us: 5}}
	got := slicesOf(marks, samples)
	want := []slice{
		{ops: 2, wall: 10 * ms, cpu: 2 * ms, lat: []float64{2, 3}},
		{ops: 1, wall: 10 * ms, cpu: 1 * ms, lat: []float64{4}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("slicesOf = %+v, want %+v", got, want)
	}
}
