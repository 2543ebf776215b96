package wire

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/market"
	"repro/internal/task"
)

// The backlog script's site: one processor under scriptPolicy and
// scriptAdmission, offered twelve identical scriptBids. Shared by the live
// servers and the simulator oracle so the two cannot drift apart.
var (
	scriptPolicy    = core.FirstReward{Alpha: 0.3, DiscountRate: 0.01}
	scriptAdmission = admission.SlackThreshold{Threshold: -150}
)

func scriptBid(id task.ID) market.Bid {
	bid := testBid(id, 100)
	bid.Decay = 2
	return bid
}

// backlogScript drives the deterministic backlog script against a server
// speaking the given wire codec, and returns the observable decision
// sequence. Decisions are driven by queue backlog in steps of whole task
// runtimes, which dwarf the microseconds of clock skew between runs, so
// the sequence is reproducible regardless of codec.
func backlogScript(t *testing.T, codec string) (decisions []string, accepted, rejected, completed int) {
	t.Helper()
	srv := startServer(t, ServerConfig{
		Processors: 1,
		TimeScale:  time.Millisecond,
		Policy:     scriptPolicy,
		Admission:  scriptAdmission,
		DataDir:    t.TempDir(),
		Fsync:      durable.FsyncAlways,
	})
	c := dialServerCodec(t, srv, codec)
	if got := c.NegotiatedCodec(); got != codec {
		t.Fatalf("negotiated %q, want %q", got, codec)
	}
	var settleWG sync.WaitGroup
	c.SetOnSettled(func(Envelope) { settleWG.Done() })

	// Each awarded task adds 100 units (100ms) of backlog on the single
	// processor, stepping the quoted slack down by 100 per award (value
	// 1000, decay 2 → slack = 500 - backlog), so the -150 threshold flips
	// from accept to reject mid-script with a 50-unit margin.
	for i := 1; i <= 12; i++ {
		bid := scriptBid(task.ID(i))
		sb, ok, err := c.Propose(bid)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			decisions = append(decisions, fmt.Sprintf("propose %d: reject", i))
			continue
		}
		decisions = append(decisions, fmt.Sprintf("propose %d: ok", i))
		settleWG.Add(1)
		if _, ok, err = c.Award(bid, sb); err != nil {
			t.Fatal(err)
		} else if !ok {
			settleWG.Done()
			decisions = append(decisions, fmt.Sprintf("award %d: reject", i))
			continue
		}
		decisions = append(decisions, fmt.Sprintf("award %d: ok", i))
		// Duplicate award: must come back as the standing contract.
		if _, ok, err = c.Award(bid, sb); err != nil || !ok {
			t.Fatalf("duplicate award %d = %v %v", i, ok, err)
		}
		st, err := c.Query(task.ID(i))
		if err != nil {
			t.Fatal(err)
		}
		decisions = append(decisions, fmt.Sprintf("query %d: %s", i, st.State))
	}
	settleWG.Wait()
	srv.mu.Lock()
	accepted, rejected, completed = srv.Accepted, srv.Rejected, srv.Completed
	srv.mu.Unlock()
	book := srv.countBook()
	if book.prices != 0 || book.unsynced != 0 {
		t.Fatalf("book not drained: %d open, %d unsynced", book.prices, book.unsynced)
	}
	checkBook(t, srv)
	return decisions, accepted, rejected, completed
}

// TestServerDifferentialShards pins the codec invariance contract: the
// accept/reject decision sequence, duplicate-award answers, query states,
// and final stats must be identical whether the server speaks JSON (the
// oracle) or the binary codec.
func TestServerDifferentialShards(t *testing.T) {
	oracleDec, oa, or, oc := backlogScript(t, CodecJSON)
	dec, a, r, c := backlogScript(t, CodecBinary)
	if strings.Join(oracleDec, "\n") != strings.Join(dec, "\n") {
		t.Fatalf("binary: decision sequence diverges from JSON oracle:\noracle:\n%s\ngot:\n%s",
			strings.Join(oracleDec, "\n"), strings.Join(dec, "\n"))
	}
	if a != oa || r != or || c != oc {
		t.Fatalf("binary: stats diverge: oracle %d/%d/%d, got %d/%d/%d", oa, or, oc, a, r, c)
	}
	if oa == 0 || or == 0 {
		t.Fatalf("script exercised only one decision: accepted %d, rejected %d", oa, or)
	}
}
