package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// collect replays a journal's records into memory.
func collect(t *testing.T, j *Journal) [][]byte {
	t.Helper()
	var recs [][]byte
	err := j.Replay(func(_ uint64, payload []byte) error {
		recs = append(recs, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d-%s", i, string(bytes.Repeat([]byte{'x'}, i))))
		idx, err := j.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if idx != uint64(i) {
			t.Fatalf("append %d got index %d", i, idx)
		}
		want = append(want, p)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rec := j2.Recovery()
	if !rec.CleanShutdown {
		t.Error("clean shutdown not detected")
	}
	if rec.Records != 100 || rec.TruncatedBytes != 0 {
		t.Errorf("recovery = %+v, want 100 records, 0 truncated", rec)
	}
	got := collect(t, j2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestEmptyRecordRejected(t *testing.T) {
	j, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Append(nil); err == nil {
		t.Fatal("empty append accepted")
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 64, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("rotation-record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	j2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := len(collect(t, j2)); got != 40 {
		t.Fatalf("replayed %d records across segments, want 40", got)
	}
	// Appends continue with monotonically increasing indexes.
	if idx, err := j2.Append([]byte("after-restart")); err != nil || idx != 40 {
		t.Fatalf("post-restart append index = %d, err = %v; want 40", idx, err)
	}
}

func TestCrashWithoutCloseReportsUnclean(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: no Close, no marker.
	_ = j.f.Close()

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Recovery().CleanShutdown {
		t.Error("crash reported as clean shutdown")
	}
}

// TestTornTailEveryOffset is the torn-write property test: truncating the
// journal at EVERY byte offset must recover a clean prefix of records —
// never an error, never a partial or corrupt record.
func TestTornTailEveryOffset(t *testing.T) {
	master := t.TempDir()
	j, err := Open(master, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	var boundaries []int64 // cumulative byte offset after each record
	off := int64(0)
	for i := 0; i < 25; i++ {
		p := []byte(fmt.Sprintf("payload-%02d-%s", i, string(bytes.Repeat([]byte{byte('a' + i%26)}, i*3))))
		if _, err := j.Append(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
		off += int64(frameHeader + len(p))
		boundaries = append(boundaries, off)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(master)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want a single master segment, got %d (err %v)", len(segs), err)
	}
	full, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != off {
		t.Fatalf("segment is %d bytes, expected %d", len(full), off)
	}

	for cut := 0; cut <= len(full); cut++ {
		dir := filepath.Join(t.TempDir(), "crash")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0].path)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jc, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		// The number of whole records before the cut.
		wantN := 0
		for _, b := range boundaries {
			if b <= int64(cut) {
				wantN++
			}
		}
		rec := jc.Recovery()
		if int(rec.Records) != wantN {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, rec.Records, wantN)
		}
		wantTorn := int64(cut) - func() int64 {
			if wantN == 0 {
				return 0
			}
			return boundaries[wantN-1]
		}()
		if rec.TruncatedBytes != wantTorn {
			t.Fatalf("cut %d: truncated %d bytes, want %d", cut, rec.TruncatedBytes, wantTorn)
		}
		got := [][]byte{}
		err = jc.Replay(func(_ uint64, p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: replay: %v", cut, err)
		}
		if len(got) != wantN {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), wantN)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("cut %d: record %d = %q, want %q", cut, i, got[i], want[i])
			}
		}
		// Post-recovery appends must land after the truncated tail and
		// survive a second recovery — recovery composes.
		if _, err := jc.Append([]byte("post-crash")); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := jc.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		jr, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if got := int(jr.Recovery().Records); got != wantN+1 {
			t.Fatalf("cut %d: second recovery found %d records, want %d", cut, got, wantN+1)
		}
		jr.Close()
	}
}

// TestCorruptionBeforeTailRefuses verifies that damage truncation cannot
// repair — a bad frame with valid segments after it, or a journal whose
// leading records are gone — is reported as corruption, not silently
// dropped.
func TestCorruptionBeforeTailRefuses(t *testing.T) {
	cases := []struct {
		name   string
		damage func(t *testing.T, segs []segment)
	}{
		{"payload byte flipped in the first segment", func(t *testing.T, segs []segment) {
			b, err := os.ReadFile(segs[0].path)
			if err != nil {
				t.Fatal(err)
			}
			b[frameHeader+2] ^= 0xff
			if err := os.WriteFile(segs[0].path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"first segment starts past record 0", func(t *testing.T, segs []segment) {
			if err := os.Remove(segs[0].path); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		j, err := Open(dir, Options{SegmentBytes: 32, Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := j.Append([]byte(fmt.Sprintf("a-long-enough-record-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := listSegments(dir)
		if err != nil || len(segs) < 2 {
			t.Fatalf("need >= 2 segments, got %d (err %v)", len(segs), err)
		}
		tc.damage(t, segs)
		if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Open = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	cases := map[string]FsyncPolicy{"always": FsyncAlways, "": FsyncAlways, "Interval": FsyncInterval, "never": FsyncNever, "none": FsyncNever}
	for in, want := range cases {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}
