package market

import (
	"math"
	"testing"

	"repro/internal/task"
)

func TestBidFromTaskRoundTrip(t *testing.T) {
	tk := task.New(7, 3, 10, 100, 2, 50)
	b := BidFromTask(tk)
	if b.TaskID != 7 || b.Arrival != 3 || b.Runtime != 10 || b.Value != 100 ||
		b.Decay != 2 || b.Bound != 50 {
		t.Errorf("BidFromTask = %+v", b)
	}
}

func TestBidYieldAtCompletion(t *testing.T) {
	b := Bid{TaskID: 1, Arrival: 10, Runtime: 5, Value: 100, Decay: 2, Bound: math.Inf(1)}
	if got := b.YieldAtCompletion(15); got != 100 { // on time
		t.Errorf("on-time yield = %v, want 100", got)
	}
	if got := b.YieldAtCompletion(25); got != 80 { // 10 late
		t.Errorf("late yield = %v, want 80", got)
	}
	bounded := b
	bounded.Bound = 30
	if got := bounded.YieldAtCompletion(1e9); got != -30 {
		t.Errorf("clamped yield = %v, want -30", got)
	}
}

func TestBestYieldSelectsEarliestForLinearDecay(t *testing.T) {
	b := Bid{TaskID: 1, Arrival: 0, Runtime: 10, Value: 100, Decay: 1, Bound: math.Inf(1)}
	offers := []ServerBid{
		{SiteID: "a", ExpectedCompletion: 30},
		{SiteID: "b", ExpectedCompletion: 12},
		{SiteID: "c", ExpectedCompletion: 20},
	}
	if got := (BestYield{}).Select(b, offers); got != 1 {
		t.Errorf("BestYield selected %d, want 1 (earliest completion)", got)
	}
}

func TestBestYieldTieBreaksEarlier(t *testing.T) {
	// Both offers land past the penalty bound: equal clamped yield; the
	// earlier completion must win.
	b := Bid{TaskID: 1, Arrival: 0, Runtime: 10, Value: 10, Decay: 10, Bound: 0}
	offers := []ServerBid{
		{SiteID: "late", ExpectedCompletion: 500},
		{SiteID: "less-late", ExpectedCompletion: 100},
	}
	if got := (BestYield{}).Select(b, offers); got != 1 {
		t.Errorf("BestYield tie-break selected %d, want 1", got)
	}
}

func TestSelectorsOnEmptyOffers(t *testing.T) {
	if got := (BestYield{}).Select(Bid{}, nil); got != -1 {
		t.Errorf("BestYield on no offers = %d, want -1", got)
	}
	if got := (EarliestCompletion{}).Select(Bid{}, nil); got != -1 {
		t.Errorf("EarliestCompletion on no offers = %d, want -1", got)
	}
}

func TestEarliestCompletion(t *testing.T) {
	offers := []ServerBid{
		{ExpectedCompletion: 9}, {ExpectedCompletion: 3}, {ExpectedCompletion: 5},
	}
	if got := (EarliestCompletion{}).Select(Bid{}, offers); got != 1 {
		t.Errorf("EarliestCompletion = %d, want 1", got)
	}
}
