package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/task"
)

// TestServerDecisionsMatchSimulator pins the live server's admission
// decisions to the sequential definition of Sections 4-6: site.Site under
// the virtual clock, which shares no handler code with the server. The
// backlog script's decision sequence and final counts must equal what the
// simulated site decides when the same twelve tasks are submitted at
// virtual time 0. The live script's wall-clock progress (milliseconds)
// stays inside the 50-unit margin shardScript builds into the threshold,
// so an instantaneous submission sees the same side of every decision.
func TestServerDecisionsMatchSimulator(t *testing.T) {
	liveDec, la, lr, lc := shardScript(t, 1, CodecJSON)

	eng := sim.New()
	oracle := site.New(eng, "oracle", site.Config{
		Processors: 1,
		Policy:     scriptPolicy,
		Admission:  scriptAdmission,
	})
	var simDec []string
	for i := 1; i <= 12; i++ {
		bid := scriptBid(task.ID(i))
		_, ok, err := oracle.Submit(task.New(bid.TaskID, 0, bid.Runtime, bid.Value, bid.Decay, bid.Bound))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			simDec = append(simDec, fmt.Sprintf("propose %d: reject", i))
			continue
		}
		simDec = append(simDec,
			fmt.Sprintf("propose %d: ok", i), fmt.Sprintf("award %d: ok", i), fmt.Sprintf("query %d: open", i))
	}
	eng.Run()
	m := oracle.Metrics()

	if strings.Join(simDec, "\n") != strings.Join(liveDec, "\n") {
		t.Fatalf("decision sequences diverge:\nsimulator:\n%s\nserver:\n%s",
			strings.Join(simDec, "\n"), strings.Join(liveDec, "\n"))
	}
	if m.Accepted != la || m.Rejected != lr || m.Completed != lc {
		t.Fatalf("stats diverge: simulator %d/%d/%d, server %d/%d/%d",
			m.Accepted, m.Rejected, m.Completed, la, lr, lc)
	}
	if la == 0 || lr == 0 {
		t.Fatalf("script exercised only one decision: accepted %d, rejected %d", la, lr)
	}
}

// TestPublishedSnapshotImmutable: a published quote snapshot keeps
// answering with its capture-time state after the live book has moved on —
// an award, dispatches and completions — and its per-instant base-candidate
// cache never leaks one clock reading's answer into another's.
func TestPublishedSnapshotImmutable(t *testing.T) {
	srv := startServer(t, ServerConfig{Processors: 1})
	c := dialServer(t, srv)
	var settled sync.WaitGroup
	c.SetOnSettled(func(Envelope) { settled.Done() })
	award := func(id task.ID) {
		t.Helper()
		bid := testBid(id, 300) // 30 ms each: task 1 outlives the capture
		sb, ok, err := c.Propose(bid)
		if err != nil || !ok {
			t.Fatalf("propose %d: %v %v", id, ok, err)
		}
		settled.Add(1)
		if _, ok, err := c.Award(bid, sb); err != nil || !ok {
			t.Fatalf("award %d: %v %v", id, ok, err)
		}
	}

	// One task running, one queued behind it.
	award(1)
	award(2)
	snap := srv.shards[0].board.Load()
	if len(snap.Running) != 1 || len(snap.Pending) != 1 {
		t.Fatalf("captured %d running, %d pending; want 1 and 1", len(snap.Running), len(snap.Pending))
	}
	probe := func() *task.Task { return task.New(99, 0, 5, 50, 1, math.Inf(1)) }
	quote := func(now float64) admission.Quote {
		t.Helper()
		q, err := snap.Quote(now, probe())
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	before := quote(1)

	award(3) // the book moves on: a third award, then dispatches and completions
	settled.Wait()
	if cur := srv.shards[0].board.Load(); cur == snap || len(cur.Pending) != 0 || len(cur.Running) != 0 {
		t.Fatal("the live book did not drain past the captured snapshot")
	}

	quote(7) // a different instant takes over the snapshot's base cache
	if after := quote(1); after != before {
		t.Fatalf("snapshot answer drifted after live mutations: %v != %v", after, before)
	}
	if len(snap.Pending) != 1 || len(snap.Running) != 1 || snap.Pending[0].State != task.Queued {
		t.Fatalf("snapshot state mutated: %d pending (%v), %d running",
			len(snap.Pending), snap.Pending[0].State, len(snap.Running))
	}
}

// TestServerAwardValidationMetrics checks the optimistic-award accounting:
// a quiet single-client sequence should validate against an unchanged
// snapshot version at least once, and every award must be counted as
// either a match or a mismatch-with-requote.
func TestServerAwardValidationMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	srv := startServer(t, ServerConfig{Processors: 2, Metrics: reg})
	c := dialServer(t, srv)
	var settleWG sync.WaitGroup
	c.SetOnSettled(func(Envelope) { settleWG.Done() })
	const n = 6
	for i := 1; i <= n; i++ {
		bid := testBid(task.ID(i), 5)
		sb, ok, err := c.Propose(bid)
		if err != nil || !ok {
			t.Fatalf("propose %d: %v %v", i, ok, err)
		}
		settleWG.Add(1)
		if _, ok, err := c.Award(bid, sb); err != nil || !ok {
			t.Fatalf("award %d: %v %v", i, ok, err)
		}
	}
	settleWG.Wait()
	match, mismatch := srv.m.validateMatch.Value(), srv.m.validateMismatch.Value()
	if match+mismatch != n {
		t.Fatalf("validations %v+%v, want %d awards accounted", match, mismatch, n)
	}
	if match == 0 {
		t.Error("no award validated against an unchanged snapshot on an idle server")
	}
	if pubs := srv.m.snapshotPublishes.Value(); pubs == 0 {
		t.Error("no snapshots published")
	}
	if sq := srv.m.snapshotQuotes.Value(); sq < n {
		t.Errorf("snapshot-path quotes %v, want >= %d", sq, n)
	}
}

// TestServerStressRace is the -race stress satellite: many goroutines drive
// concurrent quote/award/settle/status traffic at every fsync policy, and
// the contract book and metrics must come out consistent — every award
// acked exactly once, every contract settled, nothing left unsynced, and
// the counters agreeing with the book.
func TestServerStressRace(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(t *testing.T) ServerConfig
	}{
		{"memory", func(t *testing.T) ServerConfig { return ServerConfig{} }},
		{"fsync-always", func(t *testing.T) ServerConfig {
			return ServerConfig{DataDir: t.TempDir(), Fsync: durable.FsyncAlways}
		}},
		{"fsync-interval", func(t *testing.T) ServerConfig {
			return ServerConfig{DataDir: t.TempDir(), Fsync: durable.FsyncInterval, FsyncEvery: 5 * time.Millisecond}
		}},
		{"fsync-never", func(t *testing.T) ServerConfig {
			return ServerConfig{DataDir: t.TempDir(), Fsync: durable.FsyncNever}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t)
			cfg.Processors = 4
			cfg.TimeScale = 50 * time.Microsecond
			reg := obs.NewRegistry()
			cfg.Metrics = reg
			srv := startServer(t, cfg)

			const (
				clients   = 8
				perClient = 12
			)
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c, err := Dial(srv.Addr())
					if err != nil {
						errs <- err
						return
					}
					defer c.Close()
					var settleWG sync.WaitGroup
					c.SetOnSettled(func(Envelope) { settleWG.Done() })
					for i := 0; i < perClient; i++ {
						id := task.ID(w*1000 + i + 1)
						bid := testBid(id, 3)
						sb, ok, err := c.Propose(bid)
						if err != nil {
							errs <- fmt.Errorf("propose %d: %w", id, err)
							return
						}
						if !ok {
							continue
						}
						settleWG.Add(1)
						if _, ok, err := c.Award(bid, sb); err != nil {
							settleWG.Done()
							errs <- fmt.Errorf("award %d: %w", id, err)
							return
						} else if !ok {
							settleWG.Done()
							continue
						}
						// Interleave duplicate awards and queries with live
						// traffic: both must answer from the book without
						// perturbing it.
						if i%3 == 0 {
							if _, _, err := c.Award(bid, sb); err != nil {
								errs <- fmt.Errorf("dup award %d: %w", id, err)
								return
							}
						}
						if i%4 == 0 {
							if _, err := c.Query(id); err != nil {
								errs <- fmt.Errorf("query %d: %w", id, err)
								return
							}
						}
					}
					settleWG.Wait()
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			srv.mu.Lock()
			accepted, rejected, completed := srv.Accepted, srv.Rejected, srv.Completed
			srv.mu.Unlock()
			book := srv.countBook()
			open, unsynced, settled := book.prices, book.unsynced, book.settled
			if unsynced != 0 {
				t.Fatalf("%d contracts left unsynced", unsynced)
			}
			if open != 0 {
				t.Fatalf("%d contracts left open after every settlement drained", open)
			}
			if accepted != completed {
				t.Fatalf("accepted %d != completed %d", accepted, completed)
			}
			if settled != completed {
				t.Fatalf("settled book %d != completed %d", settled, completed)
			}
			if got := srv.m.accepted.Value(); got != float64(accepted) {
				t.Errorf("accepted counter %v != stat %d", got, accepted)
			}
			if got := srv.m.rejected.Value(); got != float64(rejected) {
				t.Errorf("rejected counter %v != stat %d", got, rejected)
			}
			if got := srv.m.completed.Value(); got != float64(completed) {
				t.Errorf("completed counter %v != stat %d", got, completed)
			}
			if accepted == 0 {
				t.Fatal("stress run accepted nothing")
			}
			if srv.j != nil {
				if syncs := srv.m.batchSyncs.Value(); syncs == 0 && cfg.Fsync == durable.FsyncAlways {
					t.Error("no group-commit rounds recorded at fsync=always")
				}
			}

			// The journal (when present) must still fold cleanly: every
			// contract record paired with its close.
			if cfg.DataDir != "" {
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
				j, err := durable.Open(cfg.DataDir, durable.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer j.Close()
				rb, err := foldJournal(j)
				if err != nil {
					t.Fatalf("journal does not fold after stress: %v", err)
				}
				if len(rb.open) != 0 {
					t.Fatalf("%d contracts open in the journal after clean drain", len(rb.open))
				}
				if len(rb.done) != completed {
					t.Fatalf("journal settled %d, book settled %d", len(rb.done), completed)
				}
			}
		})
	}
}

// TestOversizedFrameKeepsConnection drives the MaxFrameBytes satellite end
// to end: a frame over the configured cap gets a protocol-error reply and
// the connection keeps serving, where the old scanner cap killed it.
func TestOversizedFrameKeepsConnection(t *testing.T) {
	reg := obs.NewRegistry()
	srv := startServer(t, ServerConfig{MaxFrameBytes: 4096, Metrics: reg})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	// An 8 KiB line against a 4 KiB cap.
	if _, err := conn.Write(append(bytes.Repeat([]byte("x"), 8192), '\n')); err != nil {
		t.Fatal(err)
	}
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if err := decodeJSONEnvelope([]byte(line), &env); err != nil {
		t.Fatal(err)
	}
	if env.Type != TypeError || !strings.Contains(env.Reason, "size limit") {
		t.Fatalf("oversized frame reply = %+v, want frame-size protocol error", env)
	}
	if got := srv.ep.m.framesOversized.Value(); got != 1 {
		t.Fatalf("oversized counter = %v, want 1", got)
	}

	// The same connection still serves the protocol.
	bid := BidEnvelope(testBid(7, 5))
	b, err := jsonCodec{}.Append(nil, &bid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	line, err = br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeJSONEnvelope([]byte(line), &env); err != nil {
		t.Fatal(err)
	}
	if env.Type != TypeServerBid {
		t.Fatalf("bid after oversized frame = %+v, want a server bid", env)
	}
}

// TestClientOversizedReply verifies the client side of the frame cap: a
// server reply over the client's limit surfaces as a protocol-error reply
// to the in-flight exchange, and the connection survives for the next one.
func TestClientOversizedReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		// First request: answer with an oversized junk line.
		if _, err := br.ReadString('\n'); err != nil {
			return
		}
		conn.Write(append(bytes.Repeat([]byte("y"), 8192), '\n'))
		// Second request: answer properly.
		if _, err := br.ReadString('\n'); err != nil {
			return
		}
		b, _ := jsonCodec{}.Append(nil, &Envelope{Type: TypeServerBid, TaskID: 9, SiteID: "fake", ExpectedPrice: 1})
		conn.Write(b)
	}()

	c, err := DialConfig(ln.Addr().String(), ClientConfig{MaxFrameBytes: 4096, RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, err = c.Propose(testBid(9, 5))
	if err == nil || !strings.Contains(err.Error(), "size limit") {
		t.Fatalf("oversized reply error = %v, want frame-size protocol error", err)
	}
	sb, ok, err := c.Propose(testBid(9, 5))
	if err != nil || !ok || sb.SiteID != "fake" {
		t.Fatalf("exchange after oversized reply = %+v %v %v, want success", sb, ok, err)
	}
}

// TestReadFrame pins readFrame's framing semantics: trimming, CRLF, the
// unterminated tail, resynchronization after an oversized frame, and EOF.
func TestReadFrame(t *testing.T) {
	input := "short\r\n" + strings.Repeat("z", 300) + "\nafter\nlast"
	br := bufio.NewReaderSize(strings.NewReader(input), 16)
	var buf []byte

	line, err := readFrame(br, 256, &buf)
	if err != nil || string(line) != "short" {
		t.Fatalf("frame 1 = %q, %v", line, err)
	}
	if _, err := readFrame(br, 256, &buf); err != ErrTooLong {
		t.Fatalf("frame 2 err = %v, want ErrTooLong", err)
	}
	line, err = readFrame(br, 256, &buf)
	if err != nil || string(line) != "after" {
		t.Fatalf("frame 3 = %q, %v (stream did not resync)", line, err)
	}
	line, err = readFrame(br, 256, &buf)
	if err != nil || string(line) != "last" {
		t.Fatalf("unterminated tail = %q, %v", line, err)
	}
	if _, err := readFrame(br, 256, &buf); err == nil {
		t.Fatal("want io.EOF at end of stream")
	}
}
