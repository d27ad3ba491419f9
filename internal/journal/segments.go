package journal

// Sealed segments and their retention for log shipping. Every Trim
// seals the active oplog into a segment file named by its base, and a
// segment is deleted once the checkpoint covers all of its records —
// local recovery no longer needs them. A replication follower might,
// though: it resumes from the global sequence it last applied, which can
// lie checkpoints behind the leader's head. SetRetention lets the
// shipping layer declare the lowest sequence any registered follower
// still needs; Trim then keeps the segments above it, and prunes the
// chain as followers advance. The byte budget bounds the chain: past it
// the oldest covered segments are evicted regardless of need, and a
// follower whose position was evicted must take a snapshot resync
// (Tail.Next reports ErrEvicted) — bounded disk beats silent divergence.
// Neither rule ever deletes a segment holding a record above the
// checkpoint: recovery would need it.
//
// Segments live no longer than the process that sealed them: a restarted
// node leads under a fresh epoch, and a follower tails only positions of
// the hub's current epoch, so no segment sealed before a restart can ever
// be tailed. Recover deletes the ones the checkpoint covers, and the
// checkpoint a tree takes after replaying deletes the rest.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// segment is one sealed oplog file: records with global sequences
// (base, base+count], stored at path with an oplog header in front.
type segment struct {
	base  int64
	count int64
	path  string
}

func (s segment) end() int64   { return s.base + s.count }
func (s segment) bytes() int64 { return oplogHdr + s.count*opRecSize }

// segmentPath names a sealed segment by its base.
func segmentPath(oPath string, base int64) string {
	return fmt.Sprintf("%s.seg-%020d", oPath, base)
}

// SetRetention installs the retention policy: fn reports the lowest
// global sequence still needed by a registered follower (return
// math.MaxInt64 for none), and budgetBytes bounds the total size of
// sealed segments (oldest evicted beyond it). A zero budget disables
// retention: Trim deletes every segment its checkpoint covers.
func (j *Journal) SetRetention(fn func() int64, budgetBytes int64) {
	j.mu.Lock()
	j.retain = fn
	j.retainBudget = budgetBytes
	j.mu.Unlock()
}

// pruneLocked takes off the chain, oldest first, the segments a
// checkpoint at upTo covers that no follower needs (wholly at or below
// floor) or that the byte budget evicts, and returns their paths for the
// caller to delete. Caller holds mu.
func (j *Journal) pruneLocked(upTo, floor int64) (drop []string) {
	for len(j.segments) > 0 {
		s := j.segments[0]
		if s.end() > upTo || (s.end() > floor && j.segBytes <= j.retainBudget) {
			break
		}
		drop = append(drop, s.path)
		j.segBytes -= s.bytes()
		j.segments = j.segments[1:]
	}
	return drop
}

// readSegments reads every sealed segment file in the oplog's directory:
// the valid ones sorted by base with their records, and the paths of the
// ones without a valid header. An unreadable directory reads as no
// segments. Caller holds mu.
func (j *Journal) readSegments() (segs []segment, ops [][]Op, junk []string) {
	dir, prefix := filepath.Dir(j.oPath), filepath.Base(j.oPath)+".seg-"
	entries, _ := os.ReadDir(dir) // sorted by name, so by base
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		b, err := readFile(j.fs, path)
		base, ok := parseOplogHdr(b)
		if err != nil || !ok {
			junk = append(junk, path)
			continue
		}
		recs := DecodeOps(b[oplogHdr:])
		segs = append(segs, segment{base: base, count: int64(len(recs)), path: path})
		ops = append(ops, recs)
	}
	return segs, ops, junk
}

// SeqAppended returns the global sequence of the most recently appended
// record (across all epochs since the tree was created).
func (j *Journal) SeqAppended() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.head
}

// SeqDurable returns the highest global sequence covered by an oplog
// fsync or a committed checkpoint — the shipping bound: a leader crash
// cannot lose records at or below it, so only they may be replicated.
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
	return j.base
}

// RetainedSegments reports the sealed catch-up chain: segment count and
// total bytes (the active oplog is not counted).
func (j *Journal) RetainedSegments() (n int, bytes int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.segments), j.segBytes
}
