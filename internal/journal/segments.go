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

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

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

// discoverSegmentsLocked rebuilds the in-memory segment chain from disk
// after recovery: every well-formed segment file that chains contiguously
// up to the current epoch base is adopted; anything else (stale leftovers
// from evictions or an older tree) is deleted. Caller holds mu.
func (j *Journal) discoverSegmentsLocked() {
	dir, name := filepath.Dir(j.oPath), filepath.Base(j.oPath)+".seg-"
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	var found []segment
	for _, e := range entries {
		if e.IsDir() || len(e.Name()) <= len(name) || e.Name()[:len(name)] != name {
			continue
		}
		path := filepath.Join(dir, e.Name())
		seg, ok := j.loadSegment(path)
		if !ok {
			pagestore.RemoveFile(j.fs, path)
			continue
		}
		found = append(found, seg)
	}
	sort.Slice(found, func(a, b int) bool { return found[a].base < found[b].base })
	// Keep the maximal contiguous suffix ending exactly at the epoch base.
	keepFrom := len(found)
	next := j.baseSeq
	for i := len(found) - 1; i >= 0; i-- {
		if found[i].base+found[i].count != next {
			break
		}
		next = found[i].base
		keepFrom = i
	}
	for i := 0; i < keepFrom; i++ {
		pagestore.RemoveFile(j.fs, found[i].path)
	}
	j.segments = append([]segment(nil), found[keepFrom:]...)
	j.segBytes = 0
	for _, s := range j.segments {
		j.segBytes += s.bytes
	}
}

// loadSegment validates a segment file: its oplog header's base must
// match the base encoded in its name, and its count is the CRC-valid
// record prefix (a sealed segment was fsync'd before the rename, so a
// short prefix means foreign or damaged data — the caller deletes it
// unless it still chains).
func (j *Journal) loadSegment(path string) (segment, bool) {
	f, err := j.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return segment{}, false
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || st.Size() < oplogHdr {
		return segment{}, false
	}
	hdr := make([]byte, oplogHdr)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return segment{}, false
	}
	base, ok := parseOplogHdr(hdr)
	if !ok {
		return segment{}, false
	}
	var nameBase int64
	if _, err := fmt.Sscanf(filepath.Base(path), filepath.Base(j.oPath)+".seg-%d", &nameBase); err != nil || nameBase != base {
		return segment{}, false
	}
	count := (st.Size() - oplogHdr) / opRecSize
	return segment{base: base, count: count, bytes: st.Size(), path: path}, true
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
