package diskbtree

// Checkpoints by page. A checkpoint writes the pages dirtied since the
// last one and commits them through the store's slot map — it never
// walks the tree and never builds a second copy of it. Four steps:
//
//  1. The cut: a short barrier that waits out the mutations in flight and
//     holds off new ones. Inside it the dirty pool pages are marked, the
//     store freezes its map, and the oplog head S is read. The cut is
//     action-consistent — every operation sequenced ≤ S is wholly in it,
//     none after S is in it at all — though a split may be half done (a
//     sibling linked in, its parent not yet told), which readers of a
//     Lehman–Yao tree already handle. The pause is bounded by the pool's
//     size, not the tree's.
//  2. Outside the barrier, the marked pages are written to free slots —
//     by the checkpoint, or by a writer about to change one, or by the
//     eviction that takes one out of the pool — and then the map; fsync.
//  3. The commit: the store writes the alternate meta page, and frees the
//     slots the previous checkpoint named and this one does not.
//  4. The trim: journal.Trim(S) seals the active oplog file and deletes
//     the sealed ones the commit covers. No journal lock is held across
//     the commit, and the journal never calls into the store.
//
// No slot the committed checkpoint names is written before the next
// commit, so a crash anywhere recovers from one whole checkpoint plus the
// oplog past its S: insert and delete replay idempotently, in log order.

import (
	"encoding/binary"
	"fmt"
	"time"
)

// testHookCut, when set, runs inside the cut's barrier, after the pool
// pages are marked and before the oplog head is read (held true), and
// again as the barrier's release returns (held false). Tests use it to
// put mutations against the cut.
var testHookCut func(held bool)

// releaseCut ends the cut's barrier: writers run again from here.
func (t *Tree) releaseCut() {
	t.cutMu.Unlock()
	if testHookCut != nil {
		testHookCut(false)
	}
}

// Checkpoint takes one checkpoint, start to finish (see the file comment):
// every operation sequenced at or before the cut is in the committed
// checkpoint, and a durable tree's oplog is trimmed to the cut's sequence.
// It runs concurrently with readers and writers; only the cut holds the
// writers, and only the trim holds oplog commits. It returns those two
// pauses' sum in nanoseconds. A failure poisons the tree (and
// its oplog): a checkpoint that cannot reach disk leaves durability
// unprovable, so nothing may be acknowledged afterwards.
func (t *Tree) Checkpoint() (pauseNs int64, err error) {
	if err := t.Poisoned(); err != nil {
		return 0, err
	}
	t.ckptMu.Lock()
	defer t.ckptMu.Unlock()
	t.cache.cutWritten.Store(0)
	t.ckptTotal.Store(1) // in flight from here until the deferred reset
	defer t.ckptTotal.Store(0)

	start := time.Now()
	t.cutMu.Lock()
	marked, mapPages, err := t.cache.beginCut()
	if testHookCut != nil {
		testHookCut(true)
	}
	var seq int64
	if t.jnl != nil {
		seq = t.jnl.SeqAppended()
	}
	root, size := t.rootID(), t.size.Load()
	pauseNs = time.Since(start).Nanoseconds()
	t.releaseCut()
	t.ckptTotal.Store(int64(len(marked) + mapPages))

	writeStart := time.Now()
	if ferr := t.cache.flushCut(marked); err == nil {
		err = ferr
	}
	if err == nil {
		err = t.store.WriteMap()
	}
	syncStart := time.Now()
	if err == nil {
		t.cache.cutWritten.Add(int64(mapPages))
		err = t.store.Sync()
	}
	writeNs, syncNs := syncStart.Sub(writeStart).Nanoseconds(), time.Since(syncStart).Nanoseconds()
	if err == nil {
		var ud [64]byte
		binary.LittleEndian.PutUint64(ud[0:8], uint64(size))
		binary.LittleEndian.PutUint64(ud[8:16], uint64(t.cap))
		binary.LittleEndian.PutUint64(ud[16:24], uint64(seq))
		err = t.store.Commit(root, ud)
	}
	if err == nil && t.jnl != nil {
		var trim int64
		trim, err = t.jnl.Trim(seq)
		pauseNs += trim
	}
	if err != nil {
		err = fmt.Errorf("diskbtree: checkpoint: %w", err)
		if t.jnl != nil {
			t.jnl.Poison(err)
		}
		return 0, t.poison(err)
	}
	t.ckptSeq.Store(seq)
	t.ckptWriteNs.Store(writeNs)
	t.ckptSyncNs.Store(syncNs)
	t.checkpoints.Add(1)
	return pauseNs, nil
}

// CheckpointProgress reports the checkpoint in flight: pages written and
// pages to write (marked pages, then the map). Both are zero while none
// runs, and total is nonzero for as long as one does.
func (t *Tree) CheckpointProgress() (done, total int64) {
	total = t.ckptTotal.Load()
	if total == 0 {
		return 0, 0
	}
	return min(t.cache.cutWritten.Load(), total), total
}

// CheckpointWriteBack reports how long the last committed checkpoint
// took to write its pages back — its cut's pages and the slot map — and
// then to fsync the tree file once, in nanoseconds; zeros before the
// first.
func (t *Tree) CheckpointWriteBack() (writeNs, syncNs int64) {
	return t.ckptWriteNs.Load(), t.ckptSyncNs.Load()
}

// CheckpointSeq returns the oplog sequence of the last committed
// checkpoint; SeqAppended − CheckpointSeq is the replay debt a crash
// would incur (the "mutations behind" telemetry).
func (t *Tree) CheckpointSeq() int64 { return t.ckptSeq.Load() }

// Checkpoints returns the number of checkpoints committed since Open.
func (t *Tree) Checkpoints() int64 { return t.checkpoints.Load() }

// StoreSlots reports the tree file's length in slots and how many of them
// are free: the running high-water mark and the room under it.
func (t *Tree) StoreSlots() (total, free int) { return t.store.Slots() }
