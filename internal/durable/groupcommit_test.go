package durable

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSyncBarrierMakesRecordsDurable checks the basic contract: after a
// successful SyncBarrier(idx), replaying a reopened journal yields the
// record, even though AppendBatched skipped the inline FsyncAlways sync.
func TestSyncBarrierMakesRecordsDurable(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 10; i++ {
		last, err = j.AppendBatched([]byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := j.SyncBarrier(last); err != nil {
		t.Fatalf("SyncBarrier: %v", err)
	}
	// A second barrier on an already-durable index is the lock-free fast
	// path and must also succeed.
	if err := j.SyncBarrier(last); err != nil {
		t.Fatalf("repeat SyncBarrier: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := collect(t, j2); len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
}

// TestGroupCommitSharesFsyncs drives many concurrent AppendBatched +
// SyncBarrier pairs and asserts (via OnBatch) that the journal coalesced
// them into far fewer fsync rounds than appends — the entire point of
// group commit — while every barrier still returns durable.
func TestGroupCommitSharesFsyncs(t *testing.T) {
	const (
		writers   = 16
		perWriter = 25
	)
	var rounds, batched atomic.Int64
	dir := t.TempDir()
	j, err := Open(dir, Options{
		Fsync: FsyncAlways,
		OnBatch: func(_ uint64, n int) {
			rounds.Add(1)
			batched.Add(int64(n))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers*perWriter)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				idx, err := j.AppendBatched([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					errs <- err
					return
				}
				if err := j.SyncBarrier(idx); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("writer: %v", err)
	}
	total := int64(writers * perWriter)
	if got := batched.Load(); got != total {
		t.Fatalf("OnBatch accounted %d records, want %d", got, total)
	}
	// With 16 concurrent writers the leader/follower rounds must coalesce.
	// Even heavily serialized scheduling shares some rounds; require at
	// least a modest improvement so the test is robust on slow machines.
	if r := rounds.Load(); r >= total {
		t.Fatalf("group commit ran %d rounds for %d records — no batching", r, total)
	} else {
		t.Logf("%d records durable in %d fsync rounds (%.1f records/round)",
			total, r, float64(total)/float64(r))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := collect(t, j2); int64(len(got)) != total {
		t.Fatalf("replayed %d records, want %d", len(got), total)
	}
}

// TestSyncBarrierFailureRefusesBatch closes the journal out from under
// waiting barriers: every barrier covering a not-yet-durable record must
// return an error (the caller cannot know whether its bytes landed), and
// the journal must not deadlock any waiter.
func TestSyncBarrierFailureRefusesBatch(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	// Appends that will never be synced before the close below. FsyncNever
	// keeps Append from syncing; Close does sync, so to exercise the error
	// path we swap in a closed journal state first by closing the file out
	// from under it via Close, then barrier on an index past the frontier.
	var idxs []uint64
	for i := 0; i < 4; i++ {
		idx, err := j.AppendBatched([]byte(fmt.Sprintf("r%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		idxs = append(idxs, idx)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Close synced everything, so these are durable and the barrier's fast
	// path succeeds even on a closed journal.
	for _, idx := range idxs {
		if err := j.SyncBarrier(idx); err != nil {
			t.Fatalf("barrier on durable record after close: %v", err)
		}
	}
	// An index past the durable frontier on a closed journal must error,
	// not hang.
	if err := j.SyncBarrier(uint64(len(idxs))); err == nil {
		t.Fatal("SyncBarrier past frontier on closed journal: want error, got nil")
	}
}

// TestSyncBarrierFailurePropagatesToFollowers forces the leader's fsync to
// fail with concurrent followers in flight and asserts each of them sees
// the round's error rather than a false durability ack.
func TestSyncBarrierFailurePropagatesToFollowers(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var idxs [n]uint64
	for i := 0; i < n; i++ {
		idx, err := j.AppendBatched([]byte(fmt.Sprintf("r%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		idxs[i] = idx
	}
	// Sabotage the fsync: close the underlying file descriptor directly,
	// leaving the journal open. Every sync now fails.
	j.mu.Lock()
	j.f.Close()
	j.mu.Unlock()

	var wg sync.WaitGroup
	failures := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(idx uint64) {
			defer wg.Done()
			failures <- j.SyncBarrier(idx)
		}(idxs[i])
	}
	wg.Wait()
	close(failures)
	for err := range failures {
		if err == nil {
			t.Fatal("SyncBarrier acked durability over a failing fsync")
		}
	}
}

// TestAppendBatchedIntervalPolicy ensures AppendBatched does not disturb
// FsyncInterval/FsyncNever semantics: records append fine and a plain Sync
// still lands them.
func TestAppendBatchedIntervalPolicy(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncInterval, FsyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			j, err := Open(dir, Options{Fsync: pol})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if _, err := j.AppendBatched([]byte(fmt.Sprintf("r%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			if got := collect(t, j2); len(got) != 5 {
				t.Fatalf("replayed %d records, want 5", len(got))
			}
		})
	}
}
