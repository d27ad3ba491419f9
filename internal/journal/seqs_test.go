package journal

import (
	"os"
	"path/filepath"
	"testing"
)

func reopenJournal(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := OpenFS(path, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func appendN(t *testing.T, j *Journal, from, n int64) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := j.Append(Op{Kind: OpInsert, Key: i, Val: uint64(i) + 1}); err != nil {
			t.Fatal(err)
		}
	}
}

// Global sequence numbers must survive rotations (which reset the
// per-epoch counters) and full restarts (which reload them from the
// persisted headers).
func TestSeqContinuityAcrossCheckpointAndRecover(t *testing.T) {
	j, path := openJournal(t)
	j.Recover(0)

	appendN(t, j, 0, 3)
	if got := j.SeqAppended(); got != 3 {
		t.Fatalf("SeqAppended = %d, want 3", got)
	}
	if got := j.SeqDurable(); got != 0 {
		t.Fatalf("SeqDurable before commit = %d, want 0", got)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := j.SeqDurable(); got != 3 {
		t.Fatalf("SeqDurable after commit = %d, want 3", got)
	}

	if _, err := j.Rotate(j.SeqAppended(), nil); err != nil {
		t.Fatal(err)
	}
	if got := j.SeqAppended(); got != 3 {
		t.Fatalf("SeqAppended after checkpoint = %d, want 3 (base must advance)", got)
	}
	if got := j.SeqDurable(); got != 3 {
		t.Fatalf("SeqDurable after checkpoint = %d, want 3", got)
	}

	appendN(t, j, 3, 2)
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := j.SeqAppended(); got != 5 {
		t.Fatalf("SeqAppended in second epoch = %d, want 5", got)
	}
	j.Close()

	// Reopen as after a crash whose last checkpoint image was at seq 3.
	j2 := reopenJournal(t, path)
	ops, err := j2.Recover(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 {
		t.Fatalf("recovered %d ops, want 2 (second epoch only)", len(ops))
	}
	if got := j2.SeqAppended(); got != 5 {
		t.Fatalf("SeqAppended after reopen = %d, want 5", got)
	}
	if got := j2.SeqDurable(); got != 5 {
		t.Fatalf("SeqDurable after reopen = %d, want 5", got)
	}
	// Retention was never enabled, so the first epoch is gone.
	if got := j2.LowestSeq(); got != 3 {
		t.Fatalf("LowestSeq after reopen = %d, want 3", got)
	}
}

// With retention enabled, rotations seal the outgoing epoch instead of
// dropping it, the chain prunes as the follower floor advances, and
// the byte budget evicts oldest-first past it.
func TestRetentionSealPruneEvict(t *testing.T) {
	j, _ := openJournal(t)
	j.Recover(0)

	floor := int64(0)
	j.SetRetention(func() int64 { return floor }, 1<<20)

	appendN(t, j, 0, 3) // seqs 1..3
	j.Commit()
	j.Rotate(j.SeqAppended(), nil) // seals [0,3]
	appendN(t, j, 3, 4)            // seqs 4..7
	j.Commit()
	j.Rotate(j.SeqAppended(), nil) // seals (3,7]

	if n, bytes := j.RetainedSegments(); n != 2 || bytes != 2*OplogHdrSize+7*OpRecSize {
		t.Fatalf("retained = %d segs / %d bytes, want 2 / %d", n, bytes, 2*OplogHdrSize+7*OpRecSize)
	}
	if got := j.LowestSeq(); got != 0 {
		t.Fatalf("LowestSeq = %d, want 0", got)
	}

	// Follower advanced past the first segment: next rotation prunes it.
	floor = 3
	appendN(t, j, 7, 1)
	j.Commit()
	j.Rotate(j.SeqAppended(), nil)
	if n, _ := j.RetainedSegments(); n != 2 {
		t.Fatalf("retained = %d segs after prune, want 2 ((3,7] and (7,8])", n)
	}
	if got := j.LowestSeq(); got != 3 {
		t.Fatalf("LowestSeq after prune = %d, want 3", got)
	}

	// Resume exactly at the truncation point succeeds (a Next call reads
	// from one file at a time, so drain across the segment boundary)...
	tl := j.Tail(3)
	defer tl.Close()
	got := 0
	for next := int64(4); next <= 8; {
		first, ops, err := tl.Next(100)
		if err != nil {
			t.Fatal(err)
		}
		if len(ops) == 0 || first != next {
			t.Fatalf("Tail(3) at seq %d: chunk %d/%d ops", next, first, len(ops))
		}
		next += int64(len(ops))
		got += len(ops)
	}
	if got != 5 {
		t.Fatalf("Tail(3) drained %d ops, want 5", got)
	}
	// ...one before it is evicted.
	tl2 := j.Tail(2)
	defer tl2.Close()
	if _, _, err := tl2.Next(100); err != ErrEvicted {
		t.Fatalf("Tail(2).Next err = %v, want ErrEvicted", err)
	}

	// A tiny budget evicts everything it must, oldest first, even though
	// the follower floor still wants it.
	floor = 0
	j.SetRetention(func() int64 { return floor }, OplogHdrSize+OpRecSize)
	appendN(t, j, 8, 1)
	j.Commit()
	j.Rotate(j.SeqAppended(), nil)
	if n, bytes := j.RetainedSegments(); n != 1 || bytes > OplogHdrSize+OpRecSize {
		t.Fatalf("retained = %d segs / %d bytes after eviction, want 1 within budget", n, bytes)
	}
	if got := j.LowestSeq(); got != 8 {
		t.Fatalf("LowestSeq after eviction = %d, want 8", got)
	}
}

// No segment outlives Recover: a restarted node leads a new epoch, which
// no follower can tail from a segment of the old one, so recovery deletes
// every sealed file — the chain it sealed and any stray file matching the
// pattern alike — and the retained log starts at the image.
func TestSegmentsNeverOutliveRecover(t *testing.T) {
	j, path := openJournal(t)
	j.Recover(0)
	j.SetRetention(func() int64 { return 0 }, 1<<20)

	appendN(t, j, 0, 3)
	j.Commit()
	j.Rotate(j.SeqAppended(), nil)
	appendN(t, j, 3, 2)
	j.Commit()
	j.Close()
	if n, _ := j.RetainedSegments(); n != 1 {
		t.Fatalf("test setup: %d sealed segments, want 1", n)
	}
	stray := segmentPath(path+".oplog", 9999)
	if err := os.WriteFile(stray, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := reopenJournal(t, path)
	defer j2.Close()
	ops, err := j2.Recover(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || j2.SeqAppended() != 5 {
		t.Fatalf("recovered %d ops to seq %d, want 2 to 5", len(ops), j2.SeqAppended())
	}
	if matches, _ := filepath.Glob(path + ".oplog.seg-*"); len(matches) != 0 {
		t.Fatalf("segment files survived recovery: %v", matches)
	}
	if n, bytes := j2.RetainedSegments(); n != 0 || bytes != 0 {
		t.Fatalf("retained after recovery = %d segs / %d bytes, want none", n, bytes)
	}
	if got := j2.LowestSeq(); got != 3 {
		t.Fatalf("LowestSeq after recovery = %d, want 3 (the image)", got)
	}
	if _, _, err := j2.Tail(0).Next(100); err != ErrEvicted {
		t.Fatalf("Tail(0).Next after recovery: %v, want ErrEvicted", err)
	}
}

// A rotation can crash after renaming the new image but before renaming
// the replacement oplog. The oplog on disk then belongs to the previous
// epoch (its base is behind the image's sequence): recovery must rebase
// it — not replay its prefix into the sequence space again — and, like
// every recovery, leave no sealed segment behind: the retained log starts
// at the image.
func TestStaleOplogRebasedOnRecovery(t *testing.T) {
	j, path := openJournal(t)
	j.Recover(0)
	j.SetRetention(func() int64 { return 0 }, 1<<20)

	appendN(t, j, 0, 3) // epoch base 0: seqs 1..3
	j.Commit()
	j.Rotate(j.SeqAppended(), nil) // seals [0,3]
	appendN(t, j, 3, 2)            // epoch base 3: seqs 4,5
	j.Commit()

	// Save the base-3 epoch's oplog, run the real rotation (sealing
	// (3,5]), then undo the oplog replacement: the segment chain and the
	// "image" say seq 5, the oplog is the old base-3 epoch — exactly the
	// crash window's on-disk state.
	oplog := path + ".oplog"
	saved, err := os.ReadFile(oplog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Rotate(j.SeqAppended(), nil); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := os.WriteFile(oplog, saved, 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := reopenJournal(t, path)
	ops, err := j2.Recover(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 {
		t.Fatalf("recovered %d ops from a stale oplog, want 0 (already imaged)", len(ops))
	}
	if got := j2.SeqAppended(); got != 5 {
		t.Fatalf("SeqAppended = %d, want 5", got)
	}
	if got := j2.LowestSeq(); got != 5 {
		t.Fatalf("LowestSeq = %d, want 5 (the image)", got)
	}
	if matches, _ := filepath.Glob(path + ".oplog.seg-*"); len(matches) != 0 {
		t.Fatalf("segment files survived recovery: %v", matches)
	}
	// The rebased oplog takes the next record at sequence 6.
	appendN(t, j2, 5, 1)
	if err := j2.Commit(); err != nil {
		t.Fatal(err)
	}
	tl := j2.Tail(5)
	defer tl.Close()
	if first, ops, err := tl.Next(100); err != nil || first != 6 || len(ops) != 1 || ops[0].Key != 5 {
		t.Fatalf("Tail(5).Next = %d, %+v, %v; want the one record at seq 6", first, ops, err)
	}
	j2.Close()
}

func TestSegmentFilesDeletedByPrune(t *testing.T) {
	j, path := openJournal(t)
	j.Recover(0)
	floor := int64(0)
	j.SetRetention(func() int64 { return floor }, 1<<20)

	appendN(t, j, 0, 2)
	j.Commit()
	j.Rotate(j.SeqAppended(), nil)
	seg := segmentPath(path+".oplog", 0)
	if _, err := os.Stat(seg); err != nil {
		t.Fatalf("sealed segment missing: %v", err)
	}
	floor = 2
	appendN(t, j, 2, 1)
	j.Commit()
	j.Rotate(j.SeqAppended(), nil)
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Fatalf("pruned segment still on disk: %v", err)
	}
	// Sanity: nothing else of the pattern leaked beyond the live chain.
	matches, _ := filepath.Glob(path + ".oplog.seg-*")
	if len(matches) != 1 {
		t.Fatalf("segment files on disk = %v, want exactly the live one", matches)
	}
	j.Close()
}
