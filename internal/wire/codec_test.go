package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// codecRoundTrip encodes e through c and decodes it back, failing the
// test on any error.
func codecRoundTrip(t *testing.T, c Codec, e Envelope) Envelope {
	t.Helper()
	buf, err := c.Append(nil, &e)
	if err != nil {
		t.Fatalf("%s encode: %v", c.Name(), err)
	}
	var out Envelope
	var scratch []byte
	if err := c.Read(bufio.NewReader(bytes.NewReader(buf)), 0, &scratch, &out); err != nil {
		t.Fatalf("%s decode: %v", c.Name(), err)
	}
	return out
}

// TestCodecRegistry pins the built-in codec set: CodecByName resolves
// exactly json and binary.
func TestCodecRegistry(t *testing.T) {
	for _, want := range []string{CodecJSON, CodecBinary} {
		c, ok := CodecByName(want)
		if !ok || c.Name() != want {
			t.Fatalf("CodecByName(%q) = %v, %v", want, c, ok)
		}
	}
	if _, ok := CodecByName("gopher"); ok {
		t.Fatal("unknown codec resolved")
	}
}

// codecTestEnvelopes is the shared corpus of representative envelopes:
// every message type, empty-vs-zero label fields, Bound ±Inf spellings,
// and negative zero (which both codecs collapse to +0 via omitempty).
func codecTestEnvelopes() []Envelope {
	return []Envelope{
		{Type: TypeBid, ReqID: "r-1", TaskID: 7, Arrival: 1.5, Runtime: 10, Value: 100, Decay: 1, Bound: "inf", Cohort: "batch", Client: 3},
		{Type: TypeBid, TaskID: 8, Runtime: 0.125, Value: -0.0, Bound: EncodeBound(math.Inf(1))},
		{Type: TypeBid, TaskID: 9, Runtime: 4, Value: 5, Bound: "-inf"},
		{Type: TypeServerBid, SiteID: "site-a", TaskID: 7, ExpectedCompletion: 42.25, ExpectedPrice: 99.5},
		{Type: TypeReject, TaskID: 7, Reason: "slack below threshold"},
		{Type: TypeAward, ReqID: "r-2", TaskID: 7, Runtime: 10, Value: 100, Decay: 1, Bound: "250", SiteID: "site-a", ExpectedCompletion: 42.25, ExpectedPrice: 99.5},
		{Type: TypeContract, SiteID: "site-a", TaskID: 7, ExpectedCompletion: 42.25, ExpectedPrice: 99.5},
		{Type: TypeSettled, TaskID: 7, CompletedAt: 41, FinalPrice: -3.5},
		{Type: TypeError, Reason: "wire: missing message type"},
		{Type: TypeQuery, TaskID: 7},
		{Type: TypeStatus, TaskID: 7, ContractState: ContractSettled, CompletedAt: 41, FinalPrice: 98},
		{Type: TypeHello, Proto: ProtoV2, Codecs: []string{"binary", "json"}},
		{Type: TypeWelcome, Proto: ProtoV2, Codec: "binary", SiteID: "site-a", ReqID: "h-1"},
		{Type: "future-type", TaskID: 1, Reason: "unknown type travels via the inline-string escape"},
		{Type: TypeBid, TaskID: 1, Runtime: 1}, // empty Cohort, zero Client
		{Type: TypeBid, TaskID: math.MaxUint64, Runtime: 1, Client: -5},
		{Type: TypeBid, TaskID: 2, Runtime: 1, Deadline: 1500.25},
		{Type: TypeBid, TaskID: 3, Runtime: 1, Deadline: -1}, // budget present but spent
		{Type: TypeAward, TaskID: 4, Runtime: 1, SiteID: "site-a", Deadline: 12.5},
		{Type: TypeDigestSub, Interval: 250},
		{Type: TypeDigestSub, SiteID: "site-a", Interval: 62.5}, // the ack echoes the clamped cadence
		{Type: TypeDigest, SiteID: "site-a", Queue: 12, Running: 4, Procs: 4, Backlog: 37.5, Floor: 1.25, Shedding: true, Interval: 250},
		{Type: TypeDigest, SiteID: "site-b"},                                    // idle site: all-zero digest
		{Type: TypeDigest, SiteID: "site-c", Queue: -1, Running: -2, Procs: -3}, // counts are varints, negatives survive
		// Query replies after a broker failover: an open contract, re-adopted
		// with its terms, and one that no site holds.
		{Type: TypeStatus, TaskID: 1, SiteID: "site-a", ContractState: ContractOpen, ExpectedCompletion: 2000, ExpectedPrice: 19990.5},
		{Type: TypeStatus, TaskID: 2, SiteID: "broker", ContractState: ContractUnknown},
	}
}

// TestCodecDifferentialRoundTrip demands that the JSON and binary codecs
// agree struct-for-struct on the shared corpus: whatever comes back from
// a JSON round-trip must come back bit-identically from a binary one.
func TestCodecDifferentialRoundTrip(t *testing.T) {
	jc, _ := CodecByName(CodecJSON)
	bc, _ := CodecByName(CodecBinary)
	for _, e := range codecTestEnvelopes() {
		viaJSON := codecRoundTrip(t, jc, e)
		viaBin := codecRoundTrip(t, bc, e)
		if !reflect.DeepEqual(viaJSON, viaBin) {
			t.Errorf("codecs disagree on %+v:\njson:   %+v\nbinary: %+v", e, viaJSON, viaBin)
		}
	}
}

// TestBinaryRejectsNonFinite pins the encode-side guard: NaN or ±Inf in
// any float field must fail encoding (as encoding/json does), never
// produce a frame.
func TestBinaryRejectsNonFinite(t *testing.T) {
	bc, _ := CodecByName(CodecBinary)
	bad := []Envelope{
		{Type: TypeBid, Value: math.NaN()},
		{Type: TypeBid, Runtime: math.Inf(1)},
		{Type: TypeSettled, FinalPrice: math.Inf(-1)},
		{Type: TypeServerBid, ExpectedCompletion: math.NaN()},
		{Type: TypeBid, Deadline: math.NaN()},
	}
	for _, e := range bad {
		if _, err := bc.Append(nil, &e); err == nil {
			t.Errorf("binary codec accepted non-finite envelope %+v", e)
		}
	}
}

// TestBinaryDecodeErrors exercises the recoverable-error contract:
// malformed payloads surface as ProtocolError with the stream positioned
// at the next frame, and oversized frames as ErrTooLong after a resync.
// A presence bit at or above numBinFields names a field this decoder does
// not know (a retired one, say): the frame is refused, never decoded with
// the bit ignored.
func TestBinaryDecodeErrors(t *testing.T) {
	bc, _ := CodecByName(CodecBinary)
	good, err := bc.Append(nil, &Envelope{Type: TypeBid, TaskID: 1, Runtime: 2})
	if err != nil {
		t.Fatal(err)
	}

	frame := func(payload ...byte) []byte {
		b := []byte{byte(len(payload)), 0, 0, 0}
		return append(b, payload...)
	}
	// unknownBit is a bid frame with task ID 1 and presence bit b set.
	unknownBit := func(b int) []byte {
		return frame(append(append([]byte{1}, binary.AppendUvarint(nil, 1<<binFieldTaskID|1<<b)...), 1)...)
	}
	const unknownFields = "unknown binary envelope fields"
	cases := []struct {
		name string
		raw  []byte
		want string // substring of the error, when pinned
	}{
		{"empty frame", frame(), ""},
		{"unknown type code", frame(200, 0), ""},
		{"unknown bitmap bits", frame(1, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F), unknownFields},
		{"first unknown bit", unknownBit(numBinFields), unknownFields},
		{"next unknown bit", unknownBit(numBinFields + 1), unknownFields},
		{"top unknown bit", unknownBit(63), unknownFields},
		{"trailing bytes", frame(8, 0, 9, 9), ""}, // query, empty bitmap, junk
		{"truncated string", frame(7, 1<<binFieldReason&0x7F, 10), ""},
	}
	for _, tc := range cases {
		raw := append(append([]byte{}, tc.raw...), good...)
		br := bufio.NewReader(bytes.NewReader(raw))
		var scratch []byte
		var e Envelope
		if err := bc.Read(br, 0, &scratch, &e); !IsProtocolError(err) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ProtocolError %q", tc.name, err, tc.want)
			continue
		}
		// The stream must be resynchronized: the next frame decodes.
		if err := bc.Read(br, 0, &scratch, &e); err != nil || e.TaskID != 1 {
			t.Errorf("%s: stream not resynced: %+v, %v", tc.name, e, err)
		}
	}

	// Oversized: length prefix beyond max drains the frame and reports
	// ErrTooLong, leaving the next frame readable.
	big, err := bc.Append(nil, &Envelope{Type: TypeError, Reason: strings.Repeat("x", 200)})
	if err != nil {
		t.Fatal(err)
	}
	raw := append(append([]byte{}, big...), good...)
	br := bufio.NewReader(bytes.NewReader(raw))
	var scratch []byte
	var e Envelope
	if err := bc.Read(br, 64, &scratch, &e); !errors.Is(err, ErrTooLong) {
		t.Fatalf("oversized frame: err = %v, want ErrTooLong", err)
	}
	if err := bc.Read(br, 64, &scratch, &e); err != nil || e.TaskID != 1 {
		t.Fatalf("stream not resynced after oversized frame: %+v, %v", e, err)
	}
}

// TestBinaryEncodeAllocs is the zero-allocation guard on the binary
// codec's hot envelopes: with a warm scratch buffer, encoding a bid and a
// quote reply must not allocate. Skipped under the race detector, whose
// instrumentation allocates.
func TestBinaryEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by the race detector")
	}
	bc, _ := CodecByName(CodecBinary)
	bid := Envelope{Type: TypeBid, ReqID: "req-123", TaskID: 42, Arrival: 17.5, Runtime: 10,
		Value: 100, Decay: 1, Bound: "inf", Cohort: "batch", Client: 3}
	quote := Envelope{Type: TypeServerBid, ReqID: "req-123", SiteID: "site-a", TaskID: 42,
		ExpectedCompletion: 99.5, ExpectedPrice: 87.25}
	for _, tc := range []struct {
		name string
		env  Envelope
	}{{"bid", bid}, {"quote", quote}} {
		buf := make([]byte, 0, 512)
		if allocs := testing.AllocsPerRun(100, func() {
			var err error
			buf, err = bc.Append(buf[:0], &tc.env)
			if err != nil {
				t.Fatal(err)
			}
		}); allocs > 0 {
			t.Errorf("binary %s encode allocates %.1f times per op, want 0", tc.name, allocs)
		}
	}
}

// FuzzCodecDifferential is the cross-codec differential fuzzer: any JSON
// line the JSON codec accepts and can re-encode must round-trip through
// the binary codec to a bit-identical envelope, and envelopes the JSON
// encoder rejects (non-finite floats) must be rejected by the binary
// encoder too.
func FuzzCodecDifferential(f *testing.F) {
	for _, e := range codecTestEnvelopes() {
		if line, err := (jsonCodec{}).Append(nil, &e); err == nil {
			f.Add(line)
		}
	}
	f.Add([]byte(`{"type":"bid","task_id":1,"runtime":1e308,"bound":"inf"}`))
	f.Add([]byte(`{"type":"bid","cohort":"","client":0}`))
	f.Add([]byte(`{"type":"hello","proto":2,"codecs":[]}`))
	f.Add([]byte(`{"type":"bid","value":-0.0}`))
	f.Add([]byte(`{"type":"bid","task_id":1,"runtime":1,"deadline_ms":250.5}`))
	f.Add([]byte(`{"type":"bid","task_id":1,"runtime":1,"deadline_ms":-1}`))

	jc, _ := CodecByName(CodecJSON)
	bc, _ := CodecByName(CodecBinary)
	f.Fuzz(func(t *testing.T, line []byte) {
		var in Envelope
		if err := decodeJSONEnvelope(line, &in); err != nil {
			return
		}
		jbuf, jerr := jc.Append(nil, &in)
		bbuf, berr := bc.Append(nil, &in)
		if jerr != nil {
			// encoding/json refused it (non-finite float); the binary codec
			// must refuse it as well rather than minting an unparseable
			// JSON-side envelope.
			if berr == nil {
				t.Fatalf("binary accepted envelope JSON rejects: %+v (json err %v)", in, jerr)
			}
			return
		}
		if berr != nil {
			t.Fatalf("binary rejected envelope JSON accepts: %+v: %v", in, berr)
		}
		var viaJSON, viaBin Envelope
		var scratch []byte
		if err := jc.Read(bufio.NewReader(bytes.NewReader(jbuf)), 0, &scratch, &viaJSON); err != nil {
			t.Fatalf("json re-decode failed: %v", err)
		}
		if err := bc.Read(bufio.NewReader(bytes.NewReader(bbuf)), 0, &scratch, &viaBin); err != nil {
			t.Fatalf("binary decode failed: %v", err)
		}
		if !reflect.DeepEqual(viaJSON, viaBin) {
			t.Fatalf("round-trips disagree:\njson:   %+v\nbinary: %+v", viaJSON, viaBin)
		}
	})
}
