package journal

// Sealed-segment retention for log shipping. A checkpoint normally
// truncates the oplog — its records are reflected in the fsync'd data
// file, so local recovery no longer needs them. A replication follower
// might, though: it resumes from the global sequence it last applied,
// which can lie epochs behind the leader's head. SetRetention lets the
// shipping layer declare the lowest sequence any registered follower
// still needs; checkpoints then seal the outgoing oplog into a segment
// file (named by its epoch base) instead of truncating it, and prune
// the chain as followers advance. The byte budget bounds the chain:
// past it the oldest segments are evicted regardless of need, and a
// follower whose position was evicted must take a snapshot resync
// (Tail.Next reports ErrEvicted) — bounded disk beats silent divergence.
//
// Segments live no longer than the process that sealed them: a restarted
// node leads under a fresh epoch, and a follower tails only positions of
// the hub's current epoch, so no segment sealed before a restart can ever
// be tailed. Recover deletes them.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"btreeperf/internal/pagestore"
)

const int64max = int64(^uint64(0) >> 1)

// segment is one sealed oplog epoch: records with global sequences
// (base, base+count], stored at path with an oplog header in front.
type segment struct {
	base  int64
	count int64
	bytes int64
	path  string
}

// segmentPath names a sealed segment by its epoch base.
func segmentPath(oPath string, base int64) string {
	return fmt.Sprintf("%s.seg-%020d", oPath, base)
}

// SetRetention installs the retention policy: fn reports the lowest
// global sequence still needed by a registered follower (return
// math.MaxInt64 for none), and budgetBytes bounds the total size of
// sealed segments (oldest evicted beyond it). A zero budget disables
// sealing entirely — checkpoints truncate, the pre-replication behavior.
func (j *Journal) SetRetention(fn func() int64, budgetBytes int64) {
	j.mu.Lock()
	j.retain = fn
	j.retainBudget = budgetBytes
	j.mu.Unlock()
}

// pruneLocked drops segments no follower needs (wholly at or below the
// floor), then enforces the byte budget oldest-first. Caller holds mu.
func (j *Journal) pruneLocked(floor int64) {
	drop, remaining := 0, j.segBytes
	for drop < len(j.segments) && j.segments[drop].base+j.segments[drop].count <= floor {
		remaining -= j.segments[drop].bytes
		drop++
	}
	// Over budget: evict the oldest still-needed segments. Followers
	// behind them will be told to resync from a snapshot.
	for drop < len(j.segments) && remaining > j.retainBudget {
		remaining -= j.segments[drop].bytes
		drop++
	}
	for i := 0; i < drop; i++ {
		pagestore.RemoveFile(j.fs, j.segments[i].path)
	}
	if drop > 0 {
		j.segments = append([]segment(nil), j.segments[drop:]...)
		j.segBytes = remaining
	}
}

// removeSegmentsLocked deletes every sealed segment file a previous run
// left behind. An unreadable directory is not an error here: the chain
// starts empty either way, and no follower can ask for those files.
// Caller holds mu.
func (j *Journal) removeSegmentsLocked() {
	dir, prefix := filepath.Dir(j.oPath), filepath.Base(j.oPath)+".seg-"
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) {
			pagestore.RemoveFile(j.fs, filepath.Join(dir, e.Name()))
		}
	}
	j.segments, j.segBytes = nil, 0
}

// SeqAppended returns the global sequence of the most recently appended
// record (across all epochs since the tree was created).
func (j *Journal) SeqAppended() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.baseSeq + j.appendSeq
}

// SeqDurable returns the highest global sequence covered by an oplog
// fsync — the shipping bound: a leader crash cannot lose records at or
// below it, so only they may be replicated.
func (j *Journal) SeqDurable() int64 { return j.durable.Load() }

// LowestSeq returns the global sequence from which the retained log is
// contiguous: a Tail may resume from any fromSeq >= LowestSeq(). A
// follower further behind needs a snapshot resync.
func (j *Journal) LowestSeq() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lowestLocked()
}

func (j *Journal) lowestLocked() int64 {
	if len(j.segments) > 0 {
		return j.segments[0].base
	}
	return j.baseSeq
}

// RetainedSegments reports the sealed catch-up chain: segment count and
// total bytes (the active oplog is not counted).
func (j *Journal) RetainedSegments() (n int, bytes int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.segments), j.segBytes
}
