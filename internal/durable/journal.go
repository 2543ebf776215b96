// Package durable implements crash-safe persistence for a task-service
// site: a write-ahead journal of framed, checksummed records with segment
// rotation and a configurable fsync policy. It has no dependencies outside
// the standard library.
//
// The durability contract is the one market contracts demand (Section 6 of
// the paper): once Append returns under FsyncAlways — or Sync returns under
// any policy — the record survives a process crash, so a site can
// acknowledge an award only after the contract it creates is on stable
// storage. Recovery is deterministic: Open scans the segments in order,
// truncates a torn tail (a partial record from a crash mid-write) instead
// of propagating it, and Replay streams back exactly the records that were
// durable at crash time, in append order.
//
// On-disk layout, all within one data directory:
//
//	wal-%016d.log   journal segment; the number is the index of its first record
//	CLEAN           marker written by Close; its absence at Open means a crash
//
// Each record is framed as
//
//	[4 bytes little-endian payload length][4 bytes CRC-32C of payload][payload]
//
// A frame whose length field is zero, exceeds MaxRecord, or runs past the
// end of the file, or whose checksum mismatches, ends the scan: on the last
// segment it is a torn tail and is truncated; on an earlier segment it is
// genuine corruption and Open fails rather than silently dropping the
// records that follow it.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// MaxRecord bounds one record's payload. The cap keeps a corrupt length
// field from driving a multi-gigabyte allocation during recovery.
const MaxRecord = 16 << 20

// frameHeader is the per-record framing overhead: length + CRC.
const frameHeader = 8

// cleanMarker is the clean-shutdown marker file name.
const cleanMarker = "CLEAN"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports corruption before the journal tail — a bad frame with
// valid records after it, which truncation cannot repair.
var ErrCorrupt = errors.New("durable: journal corrupt before tail")

// FsyncPolicy selects when appended records are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs on every Append: a returned Append is durable.
	// This is the policy a site making binding promises should run.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs when an Append observes FsyncEvery elapsed since
	// the previous sync. A crash can lose up to one interval of records.
	FsyncInterval
	// FsyncNever syncs only on rotation and Close, trusting the
	// kernel to write back dirty pages. Cheapest, weakest.
	FsyncNever
)

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses an fsync policy flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never", "none":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("durable: unknown fsync policy %q (want always|interval|never)", s)
	}
}

// Options parameterize a journal. The zero value is usable: 4 MiB
// segments, FsyncAlways.
type Options struct {
	// SegmentBytes rotates to a fresh segment once the current one reaches
	// this size. Zero means the default (4 MiB).
	SegmentBytes int64
	// Fsync selects the append durability policy.
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval period. Zero means the default
	// (100ms).
	FsyncEvery time.Duration
	// OnBatch, when non-nil, observes every group-commit round: durable is
	// the durability frontier the round advanced to (every record with
	// index < durable is on stable storage), records is the number of
	// appended records the round's single fsync made durable, and streams
	// is how many distinct append streams (see AppendBatchedStream) those
	// records came from — the cross-shard coalescing a sharded writer gets
	// from sharing one barrier. It runs outside the journal's locks and
	// must not call back into the journal.
	OnBatch func(durable uint64, records, streams int)
}

const (
	defaultSegmentBytes = 4 << 20
	defaultFsyncEvery   = 100 * time.Millisecond
)

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return defaultSegmentBytes
	}
	return o.SegmentBytes
}

func (o Options) fsyncEvery() time.Duration {
	if o.FsyncEvery <= 0 {
		return defaultFsyncEvery
	}
	return o.FsyncEvery
}

// Recovery summarizes what Open found on disk.
type Recovery struct {
	// Records is the total number of intact records across all segments.
	Records uint64
	// TruncatedBytes is the size of the torn tail removed from the last
	// segment, zero on a clean journal.
	TruncatedBytes int64
	// CleanShutdown reports whether the previous process wrote the clean
	// marker in Close — false means it crashed (or is a first run with
	// Records == 0).
	CleanShutdown bool
	// Segments is the number of journal segment files found.
	Segments int
}

// segment is one on-disk journal file and its record span.
type segment struct {
	path  string
	first uint64 // index of its first record
	count uint64 // intact records it holds
}

// Journal is an append-only write-ahead log in one directory. Methods are
// safe for concurrent use.
type Journal struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File // active segment, positioned at its end
	size     int64    // bytes written to the active segment
	next     uint64   // index the next Append receives
	segments []segment
	lastSync time.Time
	closed   bool

	// Stream accounting for OnBatch: the distinct stream IDs that appended
	// since the last fsync, and the count the most recent fsync swept.
	// Guarded by mu.
	streams         map[int]struct{}
	lastSyncStreams int

	// durable is the durability frontier: every record with index < durable
	// is on stable storage. Advanced (monotonically) by every fsync —
	// per-append policy syncs, explicit Sync, SyncBarrier rounds, rotation,
	// and Close — and read lock-free by SyncBarrier's fast path.
	durable atomic.Uint64

	// gc coordinates group commit: concurrent SyncBarrier callers elect one
	// leader whose single fsync covers every record appended before it ran.
	// gc.mu is never held across an fsync and never nests inside mu.
	gc struct {
		mu      sync.Mutex
		cond    *sync.Cond
		syncing bool   // a leader's fsync is in flight
		rounds  uint64 // completed rounds (success or failure)
		errAt   uint64 // rounds value when the last failed round completed
		err     error  // the failure of that round
	}

	rec Recovery
}

// Open creates or recovers the journal in dir, creating the directory if
// needed. It scans every segment, truncates a torn tail on the final one,
// consumes the clean-shutdown marker, and positions appends after the last
// durable record. The Recovery result is available from Journal.Recovery.
func Open(dir string, opts Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j := &Journal{dir: dir, opts: opts}
	j.gc.cond = sync.NewCond(&j.gc.mu)

	_, statErr := os.Stat(filepath.Join(dir, cleanMarker))
	j.rec.CleanShutdown = statErr == nil
	// The marker describes the previous shutdown only; consume it so a
	// crash of this process is correctly reported next time.
	_ = os.Remove(filepath.Join(dir, cleanMarker))

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	j.rec.Segments = len(segs)

	// Nothing ever removes a segment, so the record sequence on disk starts
	// at zero and each segment picks up where the previous one ended; a
	// gap means records were lost.
	index := uint64(0)
	for i := range segs {
		if segs[i].first != index {
			return nil, fmt.Errorf("%w: segment %s starts at record %d, want %d",
				ErrCorrupt, filepath.Base(segs[i].path), segs[i].first, index)
		}
		count, goodBytes, torn, err := scanSegment(segs[i].path)
		if err != nil {
			return nil, err
		}
		if torn > 0 {
			if i != len(segs)-1 {
				return nil, fmt.Errorf("%w: segment %s has a bad frame %d bytes before later segments",
					ErrCorrupt, filepath.Base(segs[i].path), torn)
			}
			if err := os.Truncate(segs[i].path, goodBytes); err != nil {
				return nil, err
			}
			j.rec.TruncatedBytes = torn
		}
		segs[i].count = count
		index += count
	}
	j.segments = segs
	j.next = index
	j.rec.Records = index

	if len(segs) == 0 {
		if err := j.rotateLocked(); err != nil {
			return nil, err
		}
	} else {
		last := segs[len(segs)-1]
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		j.f = f
		j.size = st.Size()
	}
	j.lastSync = time.Now()
	// Everything recovery kept is on stable storage already (torn tails
	// were truncated away), so the durability frontier starts at the end.
	j.durable.Store(j.next)
	return j, nil
}

// Recovery returns what Open found on disk.
func (j *Journal) Recovery() Recovery { return j.rec }

// Dir returns the journal's data directory.
func (j *Journal) Dir() string { return j.dir }

// NextIndex returns the index the next appended record will receive —
// equivalently, the number of records ever appended.
func (j *Journal) NextIndex() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Append frames payload, writes it to the active segment (rotating first
// if the segment is full), and applies the fsync policy. It returns the
// record's index. Empty payloads are rejected: a zero-length frame is
// indistinguishable from zero-filled garbage during recovery.
func (j *Journal) Append(payload []byte) (uint64, error) {
	return j.append(payload, true)
}

// AppendBatched appends like Append for a caller that will make the record
// durable through SyncBarrier: under FsyncAlways the per-record inline
// fsync is skipped — that is the write half of the group-commit pipeline,
// letting N concurrent appenders share one barrier fsync instead of paying
// N serialized ones. FsyncInterval's periodic sync and FsyncNever keep
// their usual semantics.
func (j *Journal) AppendBatched(payload []byte) (uint64, error) {
	return j.appendStream(0, payload, false)
}

// AppendBatchedStream appends like AppendBatched, tagging the record with
// a caller-defined stream ID (a sharded writer uses one stream per
// shard). Streams change nothing about durability or recovery — records
// from every stream interleave in one journal in append order — they only
// feed OnBatch's per-round distinct-stream count.
func (j *Journal) AppendBatchedStream(stream int, payload []byte) (uint64, error) {
	return j.appendStream(stream, payload, false)
}

func (j *Journal) append(payload []byte, inlineSync bool) (uint64, error) {
	return j.appendStream(0, payload, inlineSync)
}

func (j *Journal) appendStream(stream int, payload []byte, inlineSync bool) (uint64, error) {
	if len(payload) == 0 {
		return 0, errors.New("durable: empty record")
	}
	if len(payload) > MaxRecord {
		return 0, fmt.Errorf("durable: record of %d bytes exceeds MaxRecord", len(payload))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, errors.New("durable: journal closed")
	}
	if j.size >= j.opts.segmentBytes() {
		if err := j.rotateLocked(); err != nil {
			return 0, err
		}
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := j.f.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := j.f.Write(payload); err != nil {
		return 0, err
	}
	j.size += int64(frameHeader + len(payload))
	index := j.next
	j.next++
	j.segments[len(j.segments)-1].count++
	if j.streams == nil {
		j.streams = make(map[int]struct{})
	}
	j.streams[stream] = struct{}{}

	switch j.opts.Fsync {
	case FsyncAlways:
		if !inlineSync {
			break // durability deferred to the caller's SyncBarrier
		}
		if err := j.syncLocked(); err != nil {
			return 0, err
		}
	case FsyncInterval:
		if time.Since(j.lastSync) >= j.opts.fsyncEvery() {
			if err := j.syncLocked(); err != nil {
				return 0, err
			}
		}
	}
	return index, nil
}

// syncLocked fsyncs the active segment and advances the durability
// frontier. Callers must hold j.mu.
func (j *Journal) syncLocked() error {
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.lastSync = time.Now()
	j.lastSyncStreams = len(j.streams)
	clear(j.streams)
	j.advanceDurable(j.next)
	return nil
}

// advanceDurable raises the durability frontier to at least n.
func (j *Journal) advanceDurable(n uint64) {
	for {
		cur := j.durable.Load()
		if cur >= n || j.durable.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Durable returns the durability frontier: every record with index less
// than the returned value is on stable storage. Lock-free.
func (j *Journal) Durable() uint64 { return j.durable.Load() }

// Sync forces every appended record to stable storage regardless of the
// fsync policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("durable: journal closed")
	}
	return j.syncLocked()
}

// SyncBarrier blocks until the record at index is on stable storage and
// returns nil, or returns the error of the fsync round that tried to cover
// it. Concurrent barriers share fsyncs: one caller becomes the round's
// leader and syncs once for every record appended before its fsync started;
// the rest wait on the round. This is the commit half of the group-commit
// pipeline — N concurrent Append+SyncBarrier pairs cost ~1 fsync, not N.
//
// A failed round fails every barrier waiting on it (a caller cannot know
// whether its bytes reached the platter), but does not poison the journal:
// the next barrier elects a fresh leader and retries.
func (j *Journal) SyncBarrier(index uint64) error {
	if j.durable.Load() > index {
		return nil // already durable, no locks touched
	}
	g := &j.gc
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if j.durable.Load() > index {
			return nil
		}
		if !g.syncing {
			// Become the leader: run one fsync covering everything
			// appended so far, with no gc lock held across the I/O.
			g.syncing = true
			g.mu.Unlock()

			prev := j.durable.Load()
			j.mu.Lock()
			frontier := j.next
			var err error
			if j.closed {
				err = errors.New("durable: journal closed")
			} else {
				err = j.syncLocked()
			}
			streams := j.lastSyncStreams
			j.mu.Unlock()
			if err == nil && frontier > prev && j.opts.OnBatch != nil {
				j.opts.OnBatch(frontier, int(frontier-prev), streams)
			}

			g.mu.Lock()
			g.syncing = false
			g.rounds++
			if err != nil {
				g.errAt, g.err = g.rounds, err
			}
			g.cond.Broadcast()
			if err != nil {
				return err
			}
			continue // frontier covers our index; loop exits via the check
		}
		entered := g.rounds
		g.cond.Wait()
		// A round completed while we waited; if it failed and our record is
		// still not durable, we were in its batch and share its failure.
		if g.errAt > entered && j.durable.Load() <= index {
			return g.err
		}
	}
}

// rotateLocked closes the active segment (syncing it) and opens a fresh
// one named by the next record index. Callers must hold j.mu.
func (j *Journal) rotateLocked() error {
	if j.f != nil {
		if err := j.f.Sync(); err != nil {
			return err
		}
		j.advanceDurable(j.next)
		if err := j.f.Close(); err != nil {
			return err
		}
	}
	path := filepath.Join(j.dir, fmt.Sprintf("wal-%016d.log", j.next))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	j.f = f
	j.size = 0
	j.segments = append(j.segments, segment{path: path, first: j.next})
	syncDir(j.dir)
	return nil
}

// Close syncs the tail, writes the clean-shutdown marker, and releases the
// active segment. Safe to call more than once.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	j.advanceDurable(j.next)
	if err := j.f.Close(); err != nil {
		return err
	}
	marker := filepath.Join(j.dir, cleanMarker)
	if err := os.WriteFile(marker, []byte("clean\n"), 0o644); err != nil {
		return err
	}
	syncDir(j.dir)
	return nil
}

// Replay streams every durable record, in append order, calling fn with
// each record's index and payload. The payload slice is reused between
// calls; fn must copy it to retain it. Replay reads its own file handles,
// so it may run before or after appends, but records appended after Open
// are replayed too — call it during recovery, before resuming writes.
func (j *Journal) Replay(fn func(index uint64, payload []byte) error) error {
	j.mu.Lock()
	segs := append([]segment(nil), j.segments...)
	j.mu.Unlock()
	var buf []byte
	for _, seg := range segs {
		f, err := os.Open(seg.path)
		if err != nil {
			return err
		}
		index := seg.first
		r := &segmentReader{f: f}
		for {
			payload, err := r.next(&buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return err
			}
			if err := fn(index, payload); err != nil {
				f.Close()
				return err
			}
			index++
			if index >= seg.first+seg.count {
				break // anything past count is the (already truncated) tail
			}
		}
		f.Close()
	}
	return nil
}

// segmentReader iterates frames in one segment file.
type segmentReader struct {
	f   *os.File
	off int64
}

// next reads one frame. It returns io.EOF at a clean end or a torn tail
// (the caller decides what a tail means), and a real error on I/O failure.
func (r *segmentReader) next(buf *[]byte) ([]byte, error) {
	var hdr [frameHeader]byte
	n, err := io.ReadFull(r.f, hdr[:])
	if err == io.EOF || (err == io.ErrUnexpectedEOF && n < frameHeader) {
		return nil, io.EOF
	}
	if err != nil {
		return nil, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || length > MaxRecord {
		return nil, io.EOF // torn or garbage tail
	}
	if cap(*buf) < int(length) {
		*buf = make([]byte, length)
	}
	payload := (*buf)[:length]
	if _, err := io.ReadFull(r.f, payload); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, io.EOF // torn tail inside the payload
		}
		return nil, err
	}
	if crc32.Checksum(payload, crcTable) != want {
		return nil, io.EOF // torn or bit-rotted tail
	}
	r.off += int64(frameHeader) + int64(length)
	return payload, nil
}

// scanSegment counts the intact records in one segment and reports the
// byte offset where they end plus how many trailing bytes are torn.
func scanSegment(path string) (count uint64, goodBytes int64, torn int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, 0, err
	}
	r := &segmentReader{f: f}
	var buf []byte
	for {
		_, err := r.next(&buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, 0, err
		}
		count++
	}
	return count, r.off, st.Size() - r.off, nil
}

// listSegments returns the journal segments in dir ordered by first record
// index.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		var first uint64
		if n, _ := fmt.Sscanf(e.Name(), "wal-%016d.log", &first); n == 1 {
			segs = append(segs, segment{path: filepath.Join(dir, e.Name()), first: first})
		}
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i].first < segs[k].first })
	return segs, nil
}

// syncDir fsyncs a directory so renames and creations within it are
// durable. Errors are ignored: not every filesystem supports it, and the
// data files themselves are already synced.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
