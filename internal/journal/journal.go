// Package journal is the logical oplog under a pagestore-backed tree:
// every committed operation (insert key→val, delete key) is appended as
// a CRC-framed record with a global sequence number. Durability and
// recovery follow the checkpoint-plus-log model:
//
//   - The tree's durable state is its last committed checkpoint — the
//     pages its store's newer meta page names, stamped with the sequence
//     S of the last operation it holds (see internal/diskbtree).
//   - Recovery = open that checkpoint, then replay the logged records
//     with sequences > S. Insert/delete have set semantics, so replay is
//     idempotent; a torn trailing record (in flight at the crash) is
//     detected by CRC and dropped.
//
// # The chain
//
// The oplog is a chain of files that are only ever appended to, sealed
// by rename, or deleted; no record is ever copied. Records are appended
// to the active file, path+".oplog", whose 16-byte header names its base
// (the sequence of the record before its first). After a checkpoint at S
// is committed, Trim(S) seals the active file — renames it to
// path+".oplog.seg-<base>" — and starts a fresh active file whose base is
// the head, then deletes every sealed segment whose records all lie at or
// below S (and below the replication floor; segments.go). Records above
// S that no fsync covers yet are fsync'd in the outgoing file before the
// seal publishes them, so every record of a sealed segment is durable: in
// the file, or in the checkpoint.
//
// Recover(S) reads whatever a crash left: the sealed segments by base,
// then the active file. It replays each record above S once, in order,
// deletes the segments that lie wholly at or below S, and restarts
// numbering at max(S, last valid sequence)+1, so no sequence is ever
// reused. Every crash point of Trim — before the rename, between the
// rename and the new file's header, before the deletes — leaves a chain
// that reads back this way; nothing in it needs rewriting.
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
// under syncOps, at Trim, and at Close — so a record that was appended
// but never committed does not survive a process kill, not even through
// the OS page cache. Nothing may be acknowledged before Commit returns,
// and nothing acknowledged is ever lost.
//
// # Fail-stop on storage errors
//
// After any write or fsync failure, the journal poisons itself: every
// later Append, Commit, and Trim returns the sticky first error. A
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
	of      pagestore.File // the active file
	oPath   string
	syncOps bool

	// Lock order: syncMu before mu, never the reverse. syncMu is held by
	// everything that writes the tail out, fsyncs, or swaps the active
	// file (group commit, Trim, Recover, Close); mu guards base, head,
	// tail, fileEnd and the segment chain.
	syncMu  sync.Mutex
	base    int64        // global sequence before the active file's first record
	head    int64        // global sequence of the last appended record
	tail    []byte       // encoded records appended since the last flush
	fileEnd int64        // active-file offset the tail will be written at
	commits atomic.Int64 // fsyncs issued by Commit (group commits)

	// durable is the highest global sequence no crash can lose: covered by
	// an oplog fsync, or by a committed checkpoint (see Trim). It only
	// grows, and only under syncMu.
	durable atomic.Int64

	// Sealed oplog segments (oldest first), and the retention policy; all
	// guarded by mu. retain reports the lowest global sequence some
	// registered follower still needs (math.MaxInt64 = none); see
	// segments.go.
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

// writeOplogHdr stamps the active file's epoch header at offset 0: the
// global sequence of the record before the file's first (its base).
func (j *Journal) writeOplogHdr(base int64) error {
	var hdr [oplogHdr]byte
	binary.LittleEndian.PutUint32(hdr[0:], oplogMagic)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(base))
	binary.LittleEndian.PutUint32(hdr[12:], crc32.ChecksumIEEE(hdr[:12]))
	_, err := j.of.WriteAt(hdr[:], 0)
	j.fileEnd = oplogHdr
	return err
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

// Close writes out the tail (unless poisoned) and closes the active file,
// without fsync and without checkpointing.
func (j *Journal) Close() error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
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

// flushLocked writes the in-memory tail to the active file with one
// WriteAt at the tracked end offset. Caller holds syncMu and mu. A failed
// write poisons.
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
// nothing — the record is durable at the next Commit. With syncOps the
// record is written through and fsync'd before Append returns.
func (j *Journal) Append(op Op) error {
	if err := j.Failed(); err != nil {
		return err
	}
	j.mu.Lock()
	j.tail = AppendEncodedOp(j.tail, op)
	j.head++
	j.mu.Unlock()
	if j.syncOps {
		j.syncMu.Lock()
		defer j.syncMu.Unlock()
		return j.syncLocked()
	}
	return nil
}

// Commit makes every record appended before the call durable: group
// commit. If a concurrent Commit's fsync (or a Trim) already covered this
// caller's records, it returns without touching the disk; otherwise one
// write of the tail and one fsync cover everything appended so far,
// including records raced in by other appenders. After a failed write or
// fsync the journal is poisoned — the records may or may not be on disk,
// and no later Commit may claim otherwise.
func (j *Journal) Commit() error {
	if err := j.Failed(); err != nil {
		return err
	}
	j.mu.Lock()
	target := j.head
	j.mu.Unlock()

	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	if err := j.Failed(); err != nil {
		return err // poisoned while we waited for the leader's fsync
	}
	if j.durable.Load() >= target {
		return nil // a concurrent commit's fsync covered us
	}
	if err := j.syncLocked(); err != nil {
		return err
	}
	j.commits.Add(1)
	return nil
}

// syncLocked writes the tail to the active file and fsyncs it. Caller
// holds syncMu.
func (j *Journal) syncLocked() error {
	j.mu.Lock()
	// Read the covered sequence BEFORE the fsync: records appended by
	// racing writers after the fsync starts are not covered by it.
	covered := j.head
	err := j.flushLocked()
	j.mu.Unlock()
	if err != nil {
		return err
	}
	if err := j.of.Sync(); err != nil {
		return j.poison(err)
	}
	if covered > j.durable.Load() {
		j.durable.Store(covered)
	}
	return nil
}

// Stats reports durability progress for the active file: records
// appended to it, records of it that no crash can lose, its size in
// record bytes, and group-commit fsyncs issued.
//
// It does not take syncMu, which Commit holds across the whole fsync: a
// telemetry scrape must not queue behind a device flush. The synced count
// is the published durable sequence less the file's base; a seal moves
// both under mu, and durable never trails the base.
func (j *Journal) Stats() (appended, synced, oplogBytes, commits int64) {
	j.mu.Lock()
	appended = j.head - j.base
	synced = j.durable.Load() - j.base
	j.mu.Unlock()
	return appended, synced, appended * opRecSize, j.commits.Load()
}

// Trim retires the oplog up to a checkpoint that is already committed at
// upTo: it seals the active file and starts a fresh one based at the
// head, then deletes the sealed segments whose records all lie at or
// below upTo and that no follower still needs (segments.go). No record is
// read or copied. The outgoing file is fsync'd only if it holds records
// above upTo that no fsync covers yet; the ones at or below upTo are in
// the checkpoint.
//
// Appends wait only for the seal itself (a rename, a create and a header
// write); commits wait for the whole call. The returned pause is the
// latter.
func (j *Journal) Trim(upTo int64) (pauseNs int64, err error) {
	if err := j.Failed(); err != nil {
		return 0, err
	}
	j.mu.Lock()
	retain, budget := j.retain, j.retainBudget
	j.mu.Unlock()
	floor := upTo
	if retain != nil && budget > 0 {
		floor = min(floor, retain())
	}

	start := time.Now()
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	cut, base := j.head, j.base
	if upTo > cut {
		j.mu.Unlock()
		return 0, fmt.Errorf("journal: trim to %d past the head %d", upTo, cut)
	}
	err = j.flushLocked()
	j.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if cut > max(upTo, j.durable.Load()) {
		if err := j.of.Sync(); err != nil {
			return 0, j.poison(err)
		}
	}

	j.mu.Lock()
	if cut > base {
		err = j.sealLocked(base, cut)
	}
	var drop []string
	if err == nil {
		// Every record up to cut is fsync'd above or in the checkpoint.
		j.durable.Store(max(j.durable.Load(), cut))
		drop = j.pruneLocked(upTo, floor)
	}
	j.mu.Unlock()
	if err != nil {
		return 0, j.poison(err)
	}
	for _, path := range drop {
		// A file that fails to go lies wholly at or below a committed
		// checkpoint, so the next Recover deletes it.
		_ = pagestore.RemoveFile(j.fs, path)
	}
	return time.Since(start).Nanoseconds(), nil
}

// sealLocked renames the active file, holding records (base, cut], to
// its segment name and opens a fresh active file based at cut. Records
// appended since the flush stay in the tail and go to the new file.
// Caller holds syncMu and mu.
func (j *Journal) sealLocked(base, cut int64) error {
	path := segmentPath(j.oPath, base)
	if err := j.fs.Rename(j.oPath, path); err != nil {
		return err
	}
	f, err := j.fs.OpenFile(j.oPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	j.of.Close()
	j.of = f
	j.base = cut
	seg := segment{base: base, count: cut - base, path: path}
	j.segments = append(j.segments, seg)
	j.segBytes += seg.bytes()
	return j.writeOplogHdr(cut)
}

// Recover reads the chain a previous run left (sealed segments by base,
// then the active file) against the checkpoint the caller recovered from
// (ckptSeq = the checkpoint's stamped sequence) and returns the
// operations to replay on top of it: each record above ckptSeq once, in
// order, with global sequences (ckptSeq, ckptSeq+n]. Torn or corrupt
// trailing records are dropped — they were never covered by an fsync, so
// they were never acknowledged.
//
// Segments wholly at or below ckptSeq are deleted, and so is a sealed
// copy that overlaps the active file (an interrupted rotation of an
// earlier format wrote those). Segments holding records above ckptSeq
// stay until the caller's next checkpoint trims them. Numbering restarts
// at max(ckptSeq, last valid sequence)+1; a missing, empty or foreign
// active file, or one that does not end the chain, is recreated based
// there. A chain with records missing above ckptSeq is refused.
func (j *Journal) Recover(ckptSeq int64) ([]Op, error) {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()

	obytes, err := readAll(j.of)
	if err != nil {
		return nil, err
	}
	base, ok := parseOplogHdr(obytes)
	var active []Op
	if ok {
		active = DecodeOps(obytes[oplogHdr:])
	}
	segs, ops, drop := j.readSegments()

	// The chain: the segments that hold records above ckptSeq and end
	// before the active file's records begin, then the active file.
	pos := ckptSeq
	var replay []Op
	j.segments, j.segBytes = nil, 0
	for i, s := range segs {
		if s.end() <= pos || (len(active) > 0 && s.base >= base) {
			drop = append(drop, s.path)
			continue
		}
		if s.base > pos {
			return nil, fmt.Errorf("journal: records (%d, %d] missing from the oplog chain", pos, s.base)
		}
		replay = append(replay, ops[i][pos-s.base:]...)
		pos = s.end()
		j.segments = append(j.segments, s)
		j.segBytes += s.bytes()
	}
	if ok {
		if base > pos {
			return nil, fmt.Errorf("journal: records (%d, %d] missing from the oplog chain", pos, base)
		}
		if end := base + int64(len(active)); end > pos {
			replay = append(replay, active[pos-base:]...)
			pos = end
		}
	}

	if ok && base+int64(len(active)) == pos {
		// The active file ends the chain. Drop any torn bytes past its
		// valid prefix so appended records land at the offsets their
		// sequences imply.
		if valid := int64(oplogHdr) + int64(len(active))*opRecSize; valid < int64(len(obytes)) {
			if err := j.of.Truncate(valid); err != nil {
				return nil, j.poison(err)
			}
		}
		j.base, j.fileEnd = base, oplogHdr+int64(len(active))*opRecSize
	} else {
		if err := j.of.Truncate(0); err != nil {
			return nil, j.poison(err)
		}
		if err := j.writeOplogHdr(pos); err != nil {
			return nil, j.poison(err)
		}
		j.base = pos
	}
	j.head = pos
	j.tail = j.tail[:0]
	j.durable.Store(pos)
	for _, path := range drop {
		_ = pagestore.RemoveFile(j.fs, path) // holds nothing to replay; retried at the next Recover
	}
	return replay, nil
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

// readFile reads the whole file at path through fs.
func readFile(fs pagestore.FS, path string) ([]byte, error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

func readAll(f pagestore.File) ([]byte, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return io.ReadAll(f)
}
