package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/task"
)

// promSamples scrapes a registry into sample -> value, keyed exactly as
// rendered (`name` or `name{a="b",...}`).
func promSamples(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("bad sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// syncBuf is a goroutine-safe bytes.Buffer for capturing trace streams
// written from server goroutines.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// traceEvents decodes every JSON trace line in the buffer.
func (s *syncBuf) traceEvents(t *testing.T) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(strings.NewReader(s.String()))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("trace line %q is not JSON: %v", sc.Text(), err)
		}
		if m["level"] == "trace" {
			out = append(out, m)
		}
	}
	return out
}

// stagesFor collects the lifecycle stages recorded for one request ID.
func stagesFor(events []map[string]any, req string) map[string]bool {
	out := make(map[string]bool)
	for _, e := range events {
		if e["req"] == req {
			out[e["stage"].(string)] = true
		}
	}
	return out
}

// assertSpanPath reconstructs combined trace streams into one task path and
// checks the span tree end to end: parent/child linkage follows the
// lifecycle DAG, no span is orphaned, and every duration — per-event and
// per-segment on the wall clock — is non-negative.
func assertSpanPath(t *testing.T, combined, req string) {
	t.Helper()
	events, err := obs.ReadTrace(strings.NewReader(combined))
	if err != nil {
		t.Fatalf("read combined trace: %v", err)
	}
	an := obs.BuildPaths(events)
	var path *obs.TaskPath
	for i := range an.Paths {
		if an.Paths[i].Req == req {
			path = &an.Paths[i]
		}
	}
	if path == nil {
		t.Fatalf("no task path for req %s in combined trace", req)
	}
	if len(path.Orphans) != 0 {
		t.Errorf("span tree for req %s has orphans: %v", req, path.Orphans)
	}
	if !path.Complete() {
		have := make([]string, 0, len(path.Stages))
		for st := range path.Stages {
			have = append(have, st)
		}
		t.Errorf("path for req %s misses critical-path stages: have %v", req, have)
	}
	for stage, parent := range map[string]string{
		obs.StageBid:      obs.StageSubmit,
		obs.StageContract: obs.StageBid,
		obs.StageStart:    obs.StageContract,
		obs.StageComplete: obs.StageStart,
		obs.StageSettle:   obs.StageComplete,
	} {
		ev, ok := path.Stages[stage]
		if !ok {
			continue
		}
		want := obs.SpanID(req, ev.Task, parent)
		if ev.Parent != want {
			t.Errorf("stage %s parent span = %q, want %q", stage, ev.Parent, want)
		}
		if ev.Span == "" || ev.Span == ev.Parent {
			t.Errorf("stage %s span = %q (parent %q), want a distinct non-empty span", stage, ev.Span, ev.Parent)
		}
	}
	for _, ev := range path.Events {
		if ev.Dur < 0 {
			t.Errorf("event %s/%s carries negative dur %v", ev.Component, ev.Stage, ev.Dur)
		}
	}
	bd := path.Breakdown("wall")
	for name, d := range map[string]float64{
		"negotiation": bd.Negotiation, "queue": bd.Queue,
		"execution": bd.Execution, "settlement": bd.Settlement, "total": bd.Total,
	} {
		if d < 0 {
			t.Errorf("wall-clock %s segment = %v, want >= 0", name, d)
		}
	}
}

// TestServerMetricsAdvance drives one task through propose, award, and
// settlement and checks every layer's instruments moved: RPC counters and
// latency histograms, task outcome counters, yield, and settlement
// delivery.
func TestServerMetricsAdvance(t *testing.T) {
	reg := obs.NewRegistry()
	srv := startServer(t, ServerConfig{SiteID: "m1", Metrics: reg})
	c := dialServer(t, srv)

	settled := make(chan Envelope, 1)
	c.SetOnSettled(func(e Envelope) { settled <- e })

	bid := testBid(1, 10)
	sb, ok, err := c.Propose(bid)
	if err != nil || !ok {
		t.Fatalf("propose: %v %v", ok, err)
	}
	if _, ok, err := c.Award(bid, sb); err != nil || !ok {
		t.Fatalf("award: %v %v", ok, err)
	}
	select {
	case <-settled:
	case <-time.After(5 * time.Second):
		t.Fatal("no settlement")
	}

	// The settlement counters are bumped just after the push is written;
	// poll briefly so the assertion doesn't race the server goroutine.
	deadline := time.Now().Add(2 * time.Second)
	for {
		s := promSamples(t, reg)
		if s[`market_settlements_total{role="site",result="delivered"}`] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered-settlement counter never advanced:\n%v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}

	s := promSamples(t, reg)
	for sample, min := range map[string]float64{
		`wire_rpc_total{site="m1",type="bid"}`:          1,
		`wire_rpc_total{site="m1",type="award"}`:        1,
		`wire_rpc_seconds_count{site="m1",type="bid"}`:  1,
		`wire_connections{site="m1"}`:                   1,
		`site_tasks_total{site="m1",event="accepted"}`:  1,
		`site_tasks_total{site="m1",event="completed"}`: 1,
		`site_admission_slack_count{site="m1"}`:         1,
		`site_yield_total{site="m1"}`:                   0.01, // any positive realized yield
		`market_settlement_lateness_count{site="m1"}`:   1,
	} {
		if s[sample] < min {
			t.Errorf("%s = %v, want >= %v", sample, s[sample], min)
		}
	}
	// The queue drained and the processor freed after completion.
	if got := s[`site_running_tasks{site="m1"}`]; got != 0 {
		t.Errorf("site_running_tasks = %v, want 0 after settlement", got)
	}
	if got := s[`site_queue_depth{site="m1"}`]; got != 0 {
		t.Errorf("site_queue_depth = %v, want 0 after settlement", got)
	}
	// The RPC histogram must resolve the latencies it measures: a bid is
	// handled in tens of microseconds, so the finest bucket bound has to
	// sit well below the default buckets' 1ms floor.
	finest := math.Inf(1)
	for sample := range s {
		if !strings.HasPrefix(sample, "wire_rpc_seconds_bucket{") {
			continue
		}
		_, le, _ := strings.Cut(sample, `le="`)
		le, _, _ = strings.Cut(le, `"`)
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("bad le in %q: %v", sample, err)
		}
		finest = math.Min(finest, bound)
	}
	if finest >= 100e-6 {
		t.Errorf("smallest wire_rpc_seconds bucket bound = %v, want < 100µs", finest)
	}
}

// TestRejectAndAbandonCounters checks the unhappy-path counters: an
// admission reject bumps the rejected series, and closing the server with
// queued work bumps abandoned.
func TestRejectAndAbandonCounters(t *testing.T) {
	reg := obs.NewRegistry()
	srv := startServer(t, ServerConfig{SiteID: "m2", Processors: 1,
		Metrics: reg, TimeScale: time.Millisecond})
	c := dialServer(t, srv)

	for i := 1; i <= 3; i++ {
		bid := testBid(task.ID(i), 200) // long; all are mid-run or queued at Close
		sb, ok, err := c.Propose(bid)
		if err != nil || !ok {
			t.Fatalf("propose %d: %v %v", i, ok, err)
		}
		if _, ok, err := c.Award(bid, sb); err != nil || !ok {
			t.Fatalf("award %d: %v %v", i, ok, err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s := promSamples(t, reg)
	if got := s[`site_tasks_total{site="m2",event="abandoned"}`]; got != 3 {
		t.Errorf("abandoned = %v, want 3", got)
	}
	if got := s[`site_queue_depth{site="m2"}`]; got != 0 {
		t.Errorf("queue depth = %v, want 0 after Close", got)
	}
}

// TestRetryDropoutCountersAdvance is the fault-injection acceptance check:
// killing one of two sites mid-run must advance the exchange's retry and
// dropout counters while the negotiation still lands on the survivor.
func TestRetryDropoutCountersAdvance(t *testing.T) {
	reg := obs.NewRegistry()
	doomed := startServer(t, ServerConfig{SiteID: "doomed", Processors: 2})
	ok1 := startServer(t, ServerConfig{SiteID: "ok", Processors: 2})
	cDoomed := dialServer(t, doomed)
	cOK := dialServer(t, ok1)

	var settle sync.WaitGroup
	cOK.SetOnSettled(func(Envelope) { settle.Done() })
	cDoomed.SetOnSettled(func(Envelope) { settle.Done() })

	neg := &Negotiator{
		Sites:   []*SiteClient{cDoomed, cOK},
		Retries: 1, Backoff: time.Millisecond,
		Metrics: reg,
	}
	waitDrain := func(why string) {
		t.Helper()
		done := make(chan struct{})
		go func() { settle.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("settlements did not drain (%s)", why)
		}
	}

	settle.Add(1)
	if _, ok, err := neg.Negotiate(testBid(1, 5)); err != nil || !ok {
		t.Fatalf("warm-up negotiate: %v %v", ok, err)
	}
	// Let the warm-up task settle before killing a site, so the kill cannot
	// strand its settlement on the doomed server.
	waitDrain("warm-up")

	s := promSamples(t, reg)
	if got := s[`market_negotiations_total{role="client",outcome="placed"}`]; got != 1 {
		t.Fatalf("placed = %v, want 1 before the dropout", got)
	}
	if got := s[`wire_site_dropouts_total{role="client"}`]; got != 0 {
		t.Fatalf("dropouts = %v before the fault, want 0", got)
	}

	if err := doomed.Close(); err != nil { // the site dies mid-run
		t.Fatal(err)
	}
	settle.Add(1)
	terms, negOK, err := neg.Negotiate(testBid(2, 5))
	if err != nil || !negOK {
		t.Fatalf("negotiate after site death: %v %v", negOK, err)
	}
	if terms.SiteID != "ok" {
		t.Fatalf("contract went to %q, want the survivor", terms.SiteID)
	}

	s = promSamples(t, reg)
	if got := s[`wire_retries_total{role="client"}`]; got < 1 {
		t.Errorf("wire_retries_total = %v, want >= 1 after the dropout", got)
	}
	if got := s[`wire_site_dropouts_total{role="client"}`]; got < 1 {
		t.Errorf("wire_site_dropouts_total = %v, want >= 1 after the dropout", got)
	}
	if got := s[`market_negotiations_total{role="client",outcome="placed"}`]; got != 2 {
		t.Errorf("placed = %v, want 2 (exchange survived the dropout)", got)
	}
	waitDrain("post-dropout")
}

// TestRequestIDPropagates runs one negotiation with tracers on both ends
// and checks the request ID minted by the client appears in the server's
// trace with the full lifecycle, and rides the settlement envelope back.
func TestRequestIDPropagates(t *testing.T) {
	var serverOut, clientOut syncBuf
	srv := startServer(t, ServerConfig{SiteID: "traced",
		Tracer: obs.NewTracer(&serverOut, "siteserver")})
	c := dialServer(t, srv)

	settled := make(chan Envelope, 1)
	c.SetOnSettled(func(e Envelope) { settled <- e })

	neg := &Negotiator{Sites: []*SiteClient{c}, Retries: -1,
		Tracer: obs.NewTracer(&clientOut, "gridclient")}
	if _, ok, err := neg.Negotiate(testBid(7, 10)); err != nil || !ok {
		t.Fatalf("negotiate: %v %v", ok, err)
	}
	var env Envelope
	select {
	case env = <-settled:
	case <-time.After(5 * time.Second):
		t.Fatal("no settlement")
	}

	clientEvents := clientOut.traceEvents(t)
	var req string
	for _, e := range clientEvents {
		if e["stage"] == obs.StageSubmit {
			req, _ = e["req"].(string)
		}
	}
	if req == "" {
		t.Fatalf("client trace has no submit event with a req id: %v", clientEvents)
	}
	if env.ReqID != req {
		t.Errorf("settlement ReqID = %q, want %q (minted at submit)", env.ReqID, req)
	}
	cs := stagesFor(clientEvents, req)
	for _, st := range []string{obs.StageSubmit, obs.StageBid, obs.StageContract} {
		if !cs[st] {
			t.Errorf("client trace missing stage %q for req %s", st, req)
		}
	}

	// The server's settle trace is written just after the push; poll.
	deadline := time.Now().Add(2 * time.Second)
	for {
		ss := stagesFor(serverOut.traceEvents(t), req)
		if ss[obs.StageSettle] {
			for _, st := range []string{obs.StageBid, obs.StageContract, obs.StageStart,
				obs.StageComplete, obs.StageSettle} {
				if !ss[st] {
					t.Errorf("server trace missing stage %q for req %s", st, req)
				}
			}
			// The combined client+server streams must reconstruct into one
			// causally linked span tree with non-negative durations.
			assertSpanPath(t, clientOut.String()+serverOut.String(), req)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server trace never recorded settle for req %s:\n%s", req, serverOut.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRequestIDCrossesBroker checks the acceptance-criteria grep: one task
// negotiated through a broker leaves the same request ID in the client,
// broker, and site trace streams.
func TestRequestIDCrossesBroker(t *testing.T) {
	var siteOut, brokerOut, clientOut syncBuf
	srv := startServer(t, ServerConfig{SiteID: "s1",
		Tracer: obs.NewTracer(&siteOut, "siteserver")})
	b, err := NewBrokerServer("127.0.0.1:0", BrokerConfig{
		SiteAddrs: []string{srv.Addr()},
		Retries:   1, Backoff: time.Millisecond,
		Tracer: obs.NewTracer(&brokerOut, "brokerd"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	c := dialBroker(t, b)

	settled := make(chan Envelope, 1)
	c.SetOnSettled(func(e Envelope) { settled <- e })

	neg := &Negotiator{Sites: []*SiteClient{c}, Retries: -1,
		Tracer: obs.NewTracer(&clientOut, "gridclient")}
	if _, ok, err := neg.Negotiate(testBid(11, 10)); err != nil || !ok {
		t.Fatalf("negotiate through broker: %v %v", ok, err)
	}
	var env Envelope
	select {
	case env = <-settled:
	case <-time.After(5 * time.Second):
		t.Fatal("no settlement through broker")
	}
	if env.ReqID == "" {
		t.Fatal("settlement through broker lost the request id")
	}
	req := env.ReqID

	deadline := time.Now().Add(2 * time.Second)
	for {
		siteStages := stagesFor(siteOut.traceEvents(t), req)
		brokerStages := stagesFor(brokerOut.traceEvents(t), req)
		clientStages := stagesFor(clientOut.traceEvents(t), req)
		if siteStages[obs.StageSettle] && brokerStages[obs.StageSettle] {
			if !clientStages[obs.StageSubmit] || !clientStages[obs.StageContract] {
				t.Errorf("client stages for %s incomplete: %v", req, clientStages)
			}
			if !brokerStages[obs.StageSubmit] || !brokerStages[obs.StageContract] {
				t.Errorf("broker stages for %s incomplete: %v", req, brokerStages)
			}
			if !siteStages[obs.StageContract] || !siteStages[obs.StageComplete] {
				t.Errorf("site stages for %s incomplete: %v", req, siteStages)
			}
			// Client, broker, and site annotate one span tree: linked
			// parent/child spans, no orphans, non-negative durations.
			assertSpanPath(t, clientOut.String()+brokerOut.String()+siteOut.String(), req)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("req %s did not reach settle in every stream\nsite: %v\nbroker: %v",
				req, siteStages, brokerStages)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
