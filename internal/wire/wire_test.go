package wire

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/market"
	"repro/internal/task"
)

func TestBoundEncoding(t *testing.T) {
	cases := []struct {
		in   float64
		wire string
	}{
		{0, "0"},
		{12.5, "12.5"},
		{math.Inf(1), "inf"},
	}
	for _, c := range cases {
		got := EncodeBound(c.in)
		if got != c.wire {
			t.Errorf("EncodeBound(%v) = %q, want %q", c.in, got, c.wire)
		}
		back, err := DecodeBound(got)
		if err != nil {
			t.Errorf("DecodeBound(%q): %v", got, err)
		}
		if back != c.in && !(math.IsInf(back, 1) && math.IsInf(c.in, 1)) {
			t.Errorf("bound round trip %v -> %v", c.in, back)
		}
	}
	if _, err := DecodeBound("garbage"); err == nil {
		t.Error("DecodeBound accepted garbage")
	}
	if _, err := DecodeBound("-5"); err == nil {
		t.Error("DecodeBound accepted negative bound")
	}
	if b, err := DecodeBound(""); err != nil || !math.IsInf(b, 1) {
		t.Errorf("DecodeBound(\"\") = %v, %v; want +Inf", b, err)
	}
}

func TestBidEnvelopeRoundTrip(t *testing.T) {
	f := func(id uint64, arrival, runtime, value, decay, bound float64) bool {
		b := market.Bid{
			TaskID:  task.ID(id),
			Arrival: math.Abs(arrival),
			Runtime: 1 + math.Abs(math.Mod(runtime, 1e6)),
			Value:   math.Mod(value, 1e9),
			Decay:   math.Abs(math.Mod(decay, 1e6)),
			Bound:   math.Abs(math.Mod(bound, 1e9)),
		}
		sent := BidEnvelope(b)
		line, err := jsonCodec{}.Append(nil, &sent)
		if err != nil {
			return false
		}
		var env Envelope
		if err := decodeJSONEnvelope(line, &env); err != nil {
			return false
		}
		back, err := env.Bid()
		if err != nil {
			return false
		}
		return back == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBidEnvelopeUnboundedRoundTrip(t *testing.T) {
	b := market.Bid{TaskID: 1, Runtime: 10, Value: 100, Decay: 1, Bound: math.Inf(1)}
	sent := BidEnvelope(b)
	line, _ := jsonCodec{}.Append(nil, &sent)
	var env Envelope
	if err := decodeJSONEnvelope(line, &env); err != nil {
		t.Fatal(err)
	}
	back, err := env.Bid()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(back.Bound, 1) {
		t.Errorf("unbounded bid came back with bound %v", back.Bound)
	}
}

func TestAwardEnvelopeCarriesBoth(t *testing.T) {
	b := market.Bid{TaskID: 9, Runtime: 10, Value: 100, Decay: 1, Bound: 0}
	sb := market.ServerBid{SiteID: "s", TaskID: 9, ExpectedCompletion: 25, ExpectedPrice: 85}
	env := AwardEnvelope(b, sb)
	if env.Type != TypeAward {
		t.Fatalf("type = %q", env.Type)
	}
	gotBid, err := env.Bid()
	if err != nil || gotBid != b {
		t.Errorf("Bid() = %+v, %v", gotBid, err)
	}
	gotSB, err := env.ServerBid()
	if err != nil || gotSB != sb {
		t.Errorf("ServerBid() = %+v, %v", gotSB, err)
	}
}

func TestEnvelopeTypeChecks(t *testing.T) {
	if _, err := (Envelope{Type: TypeReject}).Bid(); err == nil {
		t.Error("Bid() on reject envelope should fail")
	}
	if _, err := (Envelope{Type: TypeBid}).ServerBid(); err == nil {
		t.Error("ServerBid() on bid envelope should fail")
	}
}

func TestUnmarshalRejectsBadInput(t *testing.T) {
	for _, in := range []string{"", "{", `{"no_type":1}`, "not json"} {
		var env Envelope
		if err := decodeJSONEnvelope([]byte(in), &env); err == nil {
			t.Errorf("decodeJSONEnvelope(%q) accepted", in)
		}
	}
}

func TestBidValidation(t *testing.T) {
	bad := []Envelope{
		{Type: TypeBid, TaskID: 1, Runtime: 0, Value: 1, Decay: 1},
		{Type: TypeBid, TaskID: 1, Runtime: -3, Value: 1, Decay: 1},
		{Type: TypeBid, TaskID: 1, Runtime: 10, Value: 1, Decay: -1},
		{Type: TypeBid, TaskID: 1, Runtime: 10, Value: 1, Decay: 1, Bound: "x"},
	}
	for i, env := range bad {
		if _, err := env.Bid(); err == nil {
			t.Errorf("case %d: invalid bid accepted", i)
		}
	}
}

func TestMarshalProducesOneLine(t *testing.T) {
	line, err := jsonCodec{}.Append(nil, &Envelope{Type: TypeReject, Reason: "nope"})
	if err != nil {
		t.Fatal(err)
	}
	s := string(line)
	if !strings.HasSuffix(s, "\n") || strings.Count(s, "\n") != 1 {
		t.Errorf("JSON codec output %q is not a single line", s)
	}
}
