package wire

import (
	"testing"
)

// FuzzUnmarshal hardens the JSON protocol decoder: arbitrary bytes must
// never panic, and any accepted envelope must re-encode cleanly.
func FuzzUnmarshal(f *testing.F) {
	seedBid, _ := jsonCodec{}.Append(nil, &Envelope{Type: TypeBid, TaskID: 1, Runtime: 10, Value: 100, Decay: 1, Bound: "inf"})
	f.Add(seedBid)
	seedAward, _ := jsonCodec{}.Append(nil, &Envelope{Type: TypeAward, TaskID: 2, Runtime: 5, SiteID: "s", ExpectedCompletion: 12})
	f.Add(seedAward)
	f.Add([]byte(`{"type":"settled","task_id":1,"final_price":-3}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"type":"bid","bound":"NaN"}`))
	f.Add([]byte(`garbage`))

	f.Fuzz(func(t *testing.T, line []byte) {
		var env Envelope
		if err := decodeJSONEnvelope(line, &env); err != nil {
			return
		}
		if env.Type == "" {
			t.Fatal("accepted envelope without a type")
		}
		if _, err := (jsonCodec{}).Append(nil, &env); err != nil {
			t.Fatalf("re-encode of accepted envelope failed: %v", err)
		}
		// Bid extraction must never panic and must reject non-positive
		// runtimes and malformed bounds.
		if bid, err := env.Bid(); err == nil {
			if bid.Runtime <= 0 {
				t.Fatalf("Bid() accepted runtime %v", bid.Runtime)
			}
			if bid.Decay < 0 {
				t.Fatalf("Bid() accepted decay %v", bid.Decay)
			}
		}
	})
}
