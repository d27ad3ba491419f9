// Package journal is the logical oplog under a pagestore-backed tree:
// every committed operation (insert key→val, delete key) is appended as
// a CRC-framed record with a global sequence number. Durability and
// recovery follow the checkpoint-plus-log model:
//
//   - The tree's durable state is its last committed checkpoint — the
//     pages its store's newer meta page names, stamped with the sequence
//     S of the last operation it holds (see internal/diskbtree).
//   - Recovery = open that checkpoint, then replay the oplog suffix with
//     sequences > S. Insert/delete have set semantics, so replay is
//     idempotent; a torn trailing record (in flight at the crash) is
//     detected by CRC and dropped.
//   - Committing a new checkpoint is Rotate: the oplog is atomically
//     replaced (single rename) by one whose epoch base is the
//     checkpoint's sequence, inside a bounded blocking window that
//     excludes appenders.
//
// Rotate's crash ordering makes the caller's commit (the checkpoint's
// meta page) the commit point: the new oplog (holding the records
// appended since S) is written and fsync'd to a temp file first, then
// the checkpoint commits, then the oplog is renamed. A crash before the
// commit recovers from the old checkpoint with the old oplog; a crash
// between the commit and the rename recovers from the new checkpoint with
// the old oplog, whose obsolete prefix Recover drops by rebasing the file
// to base S — the rebase invariant: after recovery the oplog's base
// always equals the checkpoint's sequence, so sequence numbers are never
// reused across a crash.
//
// # Durability points and group commit
//
// Appended operations are durable only once an oplog fsync covers them:
// per operation when syncOps is set, or at the next Commit otherwise.
// Commit implements group commit — one fsync covers every record
// appended before it, concurrent committers piggyback on each other's
// fsyncs — so a serving layer can acknowledge a whole pipelined batch
// after a single disk barrier.
//
// Between those points an appended record lives only in the journal's
// in-memory tail: Append encodes it there and touches no file. The tail
// reaches the file in one write — at the next Commit, at every Append
// under syncOps, before Rotate reads the file, and at Close — so a record
// that was appended but never committed does not survive a process kill,
// not even through the OS page cache. Nothing may be acknowledged before
// Commit returns, and nothing acknowledged is ever lost.
//
// # Fail-stop on storage errors
//
// After any write or fsync failure, the journal poisons itself: every
// later Append, Commit, and Rotate returns the sticky first error. A
// failed fsync leaves the kernel free to have dropped the dirty pages
// whose writeback failed, so retrying the fsync and getting success
// proves nothing (the fsyncgate failure mode) — the only sound reaction
// is to stop acknowledging writes for good. Checkpoint failures (a
// half-written checkpoint on a full disk, say) poison through the same path
// via Poison.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"btreeperf/internal/pagestore"
)

// OpKind labels an oplog record.
type OpKind byte

const (
	// OpInsert records insert(key, val).
	OpInsert OpKind = 1
	// OpDelete records delete(key).
	OpDelete OpKind = 2
)

// Op is one logical operation.
type Op struct {
	Kind OpKind
	Key  int64
	Val  uint64
}

const (
	oplogMagic = 0x4254424f // "BTBO"
	oplogHdr   = 4 + 8 + 4  // magic baseSeq crc
	opRecSize  = 1 + 8 + 8 + 4
)

// OpRecSize is the size in bytes of one encoded oplog record.
const OpRecSize = opRecSize

// OplogHdrSize is the size in bytes of the oplog's epoch header (magic,
// base sequence, CRC), written at offset 0 before any records.
const OplogHdrSize = oplogHdr

// ErrPoisoned is wrapped by every operation on a journal that has seen a
// storage failure.
var ErrPoisoned = errors.New("journal: poisoned by an earlier storage failure")

// Journal is the oplog for one tree.
type Journal struct {
	mu      sync.Mutex
	fs      pagestore.FS
	of      pagestore.File
	oPath   string
	syncOps bool

	// rotMu serializes Rotate/Recover against each other; appends and
	// commits are excluded only inside Rotate's bounded phase 2.
	rotMu sync.Mutex

	// Group-commit state. Lock order: syncMu before mu, never the
	// reverse. appendSeq, tail and fileEnd are guarded by mu; syncSeq by
	// syncMu.
	syncMu    sync.Mutex
	appendSeq int64        // records appended this epoch
	syncSeq   int64        // records covered by the last oplog fsync
	tail      []byte       // encoded records appended since the last flush
	fileEnd   int64        // file offset the tail will be written at
	commits   atomic.Int64 // fsyncs issued by Commit (group commits)

	// Global sequence numbering for log shipping. Every appended record
	// has a global sequence number baseSeq+i (i = 1-based position in the
	// epoch); baseSeq is persisted in the epoch header and advances at
	// each rotation, so sequence numbers survive restarts and epochs.
	// durable is the highest fsync-covered global sequence.
	baseSeq int64        // guarded by mu
	durable atomic.Int64 // baseSeq + syncSeq, published after each fsync

	// Sealed oplog segments retained for follower catch-up (oldest
	// first), and the retention policy; all guarded by mu. retain reports
	// the lowest global sequence some registered follower still needs
	// (math.MaxInt64 = none); segments wholly at or below it are pruned
	// at rotation, and the byte budget evicts oldest-first beyond it.
	segments     []segment
	segBytes     int64
	retain       func() int64
	retainBudget int64

	fail atomic.Pointer[failure] // sticky first storage failure
}

type failure struct{ err error }

// OpenFS attaches an oplog at path+".oplog" through fs (nil = OSFS, a
// FailFS for failpoint testing). If the file holds a prior run's records,
// the caller must run Recover (then replay the returned ops and
// checkpoint) before appending. syncOps controls whether every logged
// operation is fsync'd (durable per op) or left to Commit (group commit).
func OpenFS(path string, syncOps bool, fs pagestore.FS) (*Journal, error) {
	if fs == nil {
		fs = pagestore.OSFS
	}
	j := &Journal{
		fs:      fs,
		oPath:   path + ".oplog",
		syncOps: syncOps,
	}
	var err error
	j.of, err = fs.OpenFile(j.oPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	// A brand-new oplog gets its epoch header immediately (base 0, not
	// yet fsync'd — the first record's covering fsync persists it too).
	st, err := j.of.Stat()
	if err == nil && st.Size() == 0 {
		err = j.writeOplogHdr(0)
	} else if err == nil {
		j.fileEnd = st.Size() // Recover re-derives it from the valid prefix
	}
	if err != nil {
		j.of.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	return j, nil
}

// writeOplogHdr stamps the oplog's epoch header at offset 0: the global
// sequence of the record before the file's first (= the epoch base).
func (j *Journal) writeOplogHdr(base int64) error {
	hdr := make([]byte, oplogHdr)
	encodeOplogHdr(hdr, base)
	_, err := j.of.WriteAt(hdr, 0)
	j.fileEnd = oplogHdr
	return err
}

func encodeOplogHdr(hdr []byte, base int64) {
	binary.LittleEndian.PutUint32(hdr[0:], oplogMagic)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(base))
	binary.LittleEndian.PutUint32(hdr[12:], crc32.ChecksumIEEE(hdr[:12]))
}

// parseOplogHdr validates an oplog epoch header, returning its base.
func parseOplogHdr(b []byte) (int64, bool) {
	if len(b) < oplogHdr || binary.LittleEndian.Uint32(b[0:]) != oplogMagic {
		return 0, false
	}
	if crc32.ChecksumIEEE(b[:12]) != binary.LittleEndian.Uint32(b[12:]) {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(b[4:])), true
}

// Close writes out the tail (unless poisoned) and closes the oplog file,
// without fsync and without checkpointing.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.Failed() == nil {
		if err := j.flushLocked(); err != nil {
			j.of.Close()
			return err
		}
	}
	return j.of.Close()
}

// flushLocked writes the in-memory tail to the file with one WriteAt at
// the tracked end offset. Caller holds mu. A failed write poisons.
func (j *Journal) flushLocked() error {
	if len(j.tail) == 0 {
		return nil
	}
	if _, err := j.of.WriteAt(j.tail, j.fileEnd); err != nil {
		return j.poison(err)
	}
	j.fileEnd += int64(len(j.tail))
	j.tail = j.tail[:0]
	return nil
}

// Failed returns the sticky first storage failure, or nil.
func (j *Journal) Failed() error {
	if f := j.fail.Load(); f != nil {
		return fmt.Errorf("%w: %w", ErrPoisoned, f.err)
	}
	return nil
}

// Poison records err as the journal's sticky failure (first one wins):
// the fail-stop entry point for storage errors detected outside the
// journal itself, like a half-written checkpoint. Nil is ignored.
func (j *Journal) Poison(err error) error { return j.poison(err) }

// poison records err as the sticky failure (first one wins) and returns it.
func (j *Journal) poison(err error) error {
	if err == nil {
		return nil
	}
	j.fail.CompareAndSwap(nil, &failure{err: err})
	return err
}

// Append logs a logical operation: it encodes the record into the
// in-memory tail and, without syncOps, touches no file and allocates
// nothing — the record is durable at the next Commit (or rotation). With
// syncOps the record is written through and fsync'd before Append returns.
func (j *Journal) Append(op Op) error {
	if err := j.Failed(); err != nil {
		return err
	}
	j.mu.Lock()
	j.tail = AppendEncodedOp(j.tail, op)
	j.appendSeq++
	j.mu.Unlock()
	if j.syncOps {
		j.syncMu.Lock()
		defer j.syncMu.Unlock()
		return j.syncLocked()
	}
	return nil
}

// Commit makes every record appended before the call durable: group
// commit. If a concurrent Commit's fsync already covered this caller's
// records, it returns without touching the disk; otherwise one write of
// the tail and one fsync cover everything appended so far, including
// records raced in by other appenders. After a failed write or fsync the
// journal is poisoned — the records may or may not be on disk, and no
// later Commit may claim otherwise.
func (j *Journal) Commit() error {
	if err := j.Failed(); err != nil {
		return err
	}
	j.mu.Lock()
	target := j.appendSeq
	j.mu.Unlock()

	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	if err := j.Failed(); err != nil {
		return err // poisoned while we waited for the leader's fsync
	}
	if j.syncSeq >= target {
		return nil // a concurrent commit's fsync covered us
	}
	if err := j.syncLocked(); err != nil {
		return err
	}
	j.commits.Add(1)
	return nil
}

// syncLocked writes the tail to the file and fsyncs it. Caller holds
// syncMu.
func (j *Journal) syncLocked() error {
	j.mu.Lock()
	// Read the covered sequence BEFORE the fsync: records appended by
	// racing writers after the fsync starts are not covered by it.
	covered, base := j.appendSeq, j.baseSeq
	err := j.flushLocked()
	j.mu.Unlock()
	if err != nil {
		return err
	}
	if err := j.of.Sync(); err != nil {
		return j.poison(err)
	}
	if covered > j.syncSeq {
		j.syncSeq = covered
		j.durable.Store(base + covered)
	}
	return nil
}

// Stats reports durability progress for the current epoch: records
// appended, records covered by an oplog fsync, current oplog size in
// bytes, and group-commit fsyncs issued.
//
// It does not take syncMu, which Commit holds across the whole fsync: a
// telemetry scrape must not queue behind a device flush. The synced count
// is the published durable sequence less the epoch base instead — both
// move together under mu at a rotation, and between rotations durable
// only ever trails syncSeq by the store that publishes it.
func (j *Journal) Stats() (appended, synced, oplogBytes, commits int64) {
	j.mu.Lock()
	appended = j.appendSeq
	synced = j.durable.Load() - j.baseSeq
	j.mu.Unlock()
	return appended, synced, appended * opRecSize, j.commits.Load()
}

// Rotate commits a checkpoint covering sequences up to upTo: it
// atomically replaces the oplog with one whose epoch base is upTo
// (keeping only the records appended since) and, when a registered
// follower still needs the outgoing records, seals them as a catch-up
// segment first. commit, if non-nil, runs inside the blocking window
// after the replacement oplog is durable and must make the checkpoint
// durable (its meta page): its success is the commit point of the whole
// checkpoint.
//
// Phase 1 (sealing) runs concurrently with appends and commits; only
// phase 2 — write + fsync of the small replacement oplog, commit, the
// rename, and the in-memory rebase — excludes them. The returned pause
// is phase 2's duration, bounded by the appends since upTo rather than
// the tree size.
func (j *Journal) Rotate(upTo int64, commit func() error) (pauseNs int64, err error) {
	if err := j.Failed(); err != nil {
		return 0, err
	}
	j.rotMu.Lock()
	defer j.rotMu.Unlock()

	// Both phases read records back from the file, so the tail goes out
	// first: everything up to head is in the file from here on.
	j.mu.Lock()
	base := j.baseSeq
	head := base + j.appendSeq
	retain, retainBudget := j.retain, j.retainBudget
	err = j.flushLocked()
	j.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if upTo < base || upTo > head {
		return 0, fmt.Errorf("journal: rotate to %d outside [%d, %d]", upTo, base, head)
	}

	// Phase 1: seal the outgoing records (base, upTo] as a segment while
	// appends continue. The bytes are stable — records never move once
	// appended, only the file's tail grows — so an unlocked ReadAt is
	// safe. The copy is fsync'd before it is renamed into the chain: a
	// sealed segment is durable end to end.
	floor := int64(int64max)
	if retain != nil {
		floor = retain()
	}
	var seg segment
	sealed := false
	if retainBudget > 0 && upTo > base && floor < upTo {
		buf := make([]byte, oplogHdr+(upTo-base)*opRecSize)
		encodeOplogHdr(buf, base)
		if _, err := j.of.ReadAt(buf[oplogHdr:], oplogHdr); err != nil {
			return 0, j.poison(fmt.Errorf("journal: seal segment: %w", err))
		}
		segPath := segmentPath(j.oPath, base)
		sf, err := pagestore.ReplaceFile(j.fs, j.oPath+".segtmp", segPath, buf, nil)
		if err != nil {
			return 0, j.poison(err)
		}
		sf.Close()
		seg = segment{base: base, count: upTo - base, bytes: int64(len(buf)), path: segPath}
		sealed = true
	}

	// Phase 2: the bounded install pause.
	start := time.Now()
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	err = func() error {
		if err := j.flushLocked(); err != nil { // appends may have raced in since phase 1
			return err
		}
		head = j.baseSeq + j.appendSeq
		suffix := head - upTo
		buf := make([]byte, oplogHdr+suffix*opRecSize)
		encodeOplogHdr(buf, upTo)
		if suffix > 0 {
			if _, err := j.of.ReadAt(buf[oplogHdr:], oplogHdr+(upTo-base)*opRecSize); err != nil {
				return fmt.Errorf("journal: read rotate suffix: %w", err)
			}
		}
		// The suffix may hold acked records: the replacement is durable
		// before commit runs and before the rename unlinks the old file.
		f, err := pagestore.ReplaceFile(j.fs, j.oPath+".tmp", j.oPath, buf, commit)
		if err != nil {
			return err
		}
		j.of.Close()
		j.of = f
		j.baseSeq = upTo
		j.appendSeq = suffix
		j.syncSeq = suffix
		j.fileEnd = int64(len(buf))
		j.durable.Store(head) // the replacement's fsync covered everything
		if sealed {
			j.segments = append(j.segments, seg)
			j.segBytes += seg.bytes
		}
		j.pruneLocked(floor)
		return nil
	}()
	if err != nil {
		return 0, j.poison(err)
	}
	return time.Since(start).Nanoseconds(), nil
}

// Recover aligns the oplog with the checkpoint the caller recovered from
// (ckptSeq = the checkpoint's stamped sequence) and returns the
// operations to replay on top of it, in order, with global sequences
// (ckptSeq, ckptSeq+n]. Torn or corrupt trailing records are dropped —
// they were never covered by an fsync, so they were never acknowledged.
//
// The rebase invariant: on return the oplog's base equals ckptSeq,
// whatever the file held. A file with an older base (a crash between
// Rotate's commit and its oplog rename) is rebased by rewriting it with
// only the surviving suffix; without that, the next run would reuse
// sequence numbers the checkpoint already covers, and a follower that saw
// the originals would silently diverge. Sealed segments a previous run
// left are deleted (segments.go).
func (j *Journal) Recover(ckptSeq int64) ([]Op, error) {
	j.rotMu.Lock()
	defer j.rotMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()

	// Clear temp files an interrupted rotation may have left behind.
	pagestore.RemoveFile(j.fs, j.oPath+".tmp")
	pagestore.RemoveFile(j.fs, j.oPath+".segtmp")

	obytes, err := readAll(j.of)
	if err != nil {
		return nil, err
	}
	base, ok := parseOplogHdr(obytes)
	var ops []Op
	if ok {
		ops = DecodeOps(obytes[oplogHdr:])
	}
	head := base + int64(len(ops))

	switch {
	case !ok:
		// Fresh, foreign, or short file: start the epoch clean at the checkpoint.
		if err := j.of.Truncate(0); err != nil {
			return nil, j.poison(err)
		}
		if err := j.writeOplogHdr(ckptSeq); err != nil {
			return nil, j.poison(err)
		}
		ops = nil
	case base > ckptSeq:
		// The log claims to start after the checkpoint ends: records
		// (ckptSeq, base] are gone. Nothing sound can be replayed.
		return nil, fmt.Errorf("journal: oplog base %d ahead of checkpoint sequence %d", base, ckptSeq)
	case base == ckptSeq:
		// Aligned. Drop any torn bytes past the valid prefix so appended
		// records land at the offsets their sequences imply.
		if valid := int64(oplogHdr) + int64(len(ops))*opRecSize; valid < int64(len(obytes)) {
			if err := j.of.Truncate(valid); err != nil {
				return nil, j.poison(err)
			}
		}
	default: // base < ckptSeq: rebase to the checkpoint (the invariant above)
		keep := head - ckptSeq
		if keep < 0 {
			keep = 0
		}
		cut := oplogHdr + int(int64(len(ops))-keep)*opRecSize
		suffix := obytes[cut : cut+int(keep)*opRecSize]
		buf := make([]byte, oplogHdr+len(suffix))
		encodeOplogHdr(buf, ckptSeq)
		copy(buf[oplogHdr:], suffix)
		// The suffix records may have been acked before the crash — the
		// rebase is durable before it replaces the old file.
		f, err := pagestore.ReplaceFile(j.fs, j.oPath+".tmp", j.oPath, buf, nil)
		if err != nil {
			return nil, j.poison(err)
		}
		j.of.Close()
		j.of = f
		ops = ops[int64(len(ops))-keep:]
	}

	j.baseSeq = ckptSeq
	j.appendSeq = int64(len(ops))
	j.syncSeq = int64(len(ops))
	j.fileEnd = oplogHdr + int64(len(ops))*opRecSize
	j.tail = j.tail[:0]
	j.durable.Store(ckptSeq + int64(len(ops)))
	j.removeSegmentsLocked()
	return ops, nil
}

// DecodeOps parses oplog bytes into the valid prefix of logical
// operations, stopping at the first torn, corrupt, or unknown record —
// the crash-recovery contract for a log whose tail may have been in
// flight. It never fails: invalid input yields a shorter (possibly
// empty) prefix.
func DecodeOps(b []byte) []Op {
	var ops []Op
	for off := 0; off+opRecSize <= len(b); off += opRecSize {
		rec := b[off : off+opRecSize]
		if crc32.ChecksumIEEE(rec[:17]) != binary.LittleEndian.Uint32(rec[17:]) {
			break
		}
		kind := OpKind(rec[0])
		if kind != OpInsert && kind != OpDelete {
			break
		}
		ops = append(ops, Op{
			Kind: kind,
			Key:  int64(binary.LittleEndian.Uint64(rec[1:])),
			Val:  binary.LittleEndian.Uint64(rec[9:]),
		})
	}
	return ops
}

// AppendEncodedOp appends op's record encoding to dst.
func AppendEncodedOp(dst []byte, op Op) []byte {
	dst = append(dst, make([]byte, opRecSize)...) // grows in place: no temporary
	rec := dst[len(dst)-opRecSize:]
	rec[0] = byte(op.Kind)
	binary.LittleEndian.PutUint64(rec[1:], uint64(op.Key))
	binary.LittleEndian.PutUint64(rec[9:], op.Val)
	binary.LittleEndian.PutUint32(rec[17:], crc32.ChecksumIEEE(rec[:17]))
	return dst
}

func readAll(f pagestore.File) ([]byte, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return io.ReadAll(f)
}
