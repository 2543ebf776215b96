package wire

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
)

var benchEnvelope = Envelope{
	Type: TypeServerBid, TaskID: 12345, SiteID: "bench-site",
	ExpectedCompletion: 1234.5678, ExpectedPrice: 98.76, ReqID: "req-0000001",
}

// TestEncodeAllocsGuard pins the served JSON encode path's steady-state
// allocation budget: jsonCodec.Append into a connection's reused scratch
// buffer, as serverConn.send does. json.Encoder itself allocates a little
// per Encode (field marshaling); the guard exists to catch a regression
// back to a fresh buffer per envelope, which costs several allocations
// more.
func TestEncodeAllocsGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	// Warm the pool and the scratch buffer so the steady state is measured.
	var buf []byte
	var err error
	for i := 0; i < 4; i++ {
		if buf, err = (jsonCodec{}).Append(buf[:0], &benchEnvelope); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if buf, err = (jsonCodec{}).Append(buf[:0], &benchEnvelope); err != nil {
			t.Fatal(err)
		}
	})
	// A fresh buffer per send costs ~4 allocs (buffer growth + byte-slice
	// copy) on top of the encoder's own; the pooled path must stay under
	// that.
	if avg > 2 {
		t.Fatalf("jsonCodec.Append allocates %.1f allocs/op, want <= 2 (pool regression)", avg)
	}
}

// TestReadFrameAllocsGuard pins the read path: with a warm reuse buffer,
// framing a line must not allocate at all.
func TestReadFrameAllocsGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	payload := strings.Repeat(`{"type":"bid","task_id":1}`+"\n", 64)
	var buf []byte
	br := bufio.NewReaderSize(strings.NewReader(payload), 4096)
	if _, err := readFrame(br, DefaultMaxFrameBytes, &buf); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(32, func() {
		if _, err := readFrame(br, DefaultMaxFrameBytes, &buf); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("readFrame allocates %.1f allocs/op, want 0", avg)
	}
}

// BenchmarkEnvelopeEncode compares the JSON codec encoding into a reused
// scratch buffer (the served path) against a fresh buffer per send, the
// allocs/op columns being the point.
func BenchmarkEnvelopeEncode(b *testing.B) {
	b.Run("reused", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		var err error
		for i := 0; i < b.N; i++ {
			if buf, err = (jsonCodec{}).Append(buf[:0], &benchEnvelope); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := (jsonCodec{}).Append(nil, &benchEnvelope); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFrameDecode measures the readFrame + JSON decode inbound path.
func BenchmarkFrameDecode(b *testing.B) {
	line, err := jsonCodec{}.Append(nil, &benchEnvelope)
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat(line, 1024)
	b.ReportAllocs()
	var buf []byte
	r := bytes.NewReader(payload)
	br := bufio.NewReaderSize(r, 64*1024)
	for i := 0; i < b.N; i++ {
		frame, err := readFrame(br, DefaultMaxFrameBytes, &buf)
		if err == io.EOF {
			r.Reset(payload)
			br.Reset(r)
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		var env Envelope
		if err := decodeJSONEnvelope(frame, &env); err != nil {
			b.Fatal(err)
		}
	}
}
