package journal

// Tail reads the oplog as a replication stream: a cursor over global
// sequence numbers that follows the log across sealed segments and the
// active epoch, bounded by the durable sequence — a leader never ships
// a record its own crash could still lose.
//
// Concurrency: a Tail owns a private read-only file handle. The planning
// step (which file, which offset, how many records are safe to read)
// runs under the journal lock; the file I/O does not, so a slow reader
// never stalls commits. Records at or below the durable sequence are in
// the file by definition (the appended-but-uncommitted tail is not, and
// is never read), but a read may still race a seal moving the active
// file to its segment name and starting a new one at the same path — EOF
// in the middle of an entry, or the new file's header. That is not an
// error: Next consumes the complete CRC-valid prefix and leaves the
// cursor at the entry boundary, so the next call retries from there.

import (
	"errors"
	"io"
	"os"
)

// ErrEvicted reports that the requested sequence is no longer in the
// retained log (pruned or budget-evicted): the follower cannot catch up
// from the log and must take a snapshot resync.
var ErrEvicted = errors.New("journal: sequence evicted from the retained log")

// Tail is a sequential reader of the oplog from a global sequence.
type Tail struct {
	j    *Journal
	next int64 // next global sequence to deliver

	f     filehandle
	fPath string

	buf []byte
	hdr [oplogHdr]byte
}

type filehandle interface {
	io.ReaderAt
	io.Closer
}

// Tail opens a read cursor delivering records with global sequences
// > fromSeq (fromSeq = 0 reads from the beginning of history). Errors —
// including an evicted fromSeq — surface on Next, so a follower
// registration can always be represented.
func (j *Journal) Tail(fromSeq int64) *Tail {
	return &Tail{j: j, next: fromSeq + 1}
}

// Pos returns the sequence of the last delivered record.
func (t *Tail) Pos() int64 { return t.next - 1 }

// Close releases the cursor's file handle. The Tail may be used again;
// the next read reopens.
func (t *Tail) Close() error {
	if t.f != nil {
		err := t.f.Close()
		t.f, t.fPath = nil, ""
		return err
	}
	return nil
}

// Next returns up to max records starting at the cursor, with the global
// sequence of the first. (0, nil, nil) means nothing new yet — poll
// again after the next commit. ErrEvicted means the cursor fell off the
// retained log. Torn or in-flight tail entries are retried from the
// entry boundary, never surfaced as errors; a CRC failure strictly below
// the durable bound is real corruption and is surfaced.
func (t *Tail) Next(max int) (firstSeq int64, ops []Op, err error) {
	if max <= 0 {
		return 0, nil, nil
	}
	j := t.j

	// Plan under the lock: resolve the cursor to a file, its base,
	// and the highest sequence safe to read from that file.
	j.mu.Lock()
	if t.next <= j.lowestLocked() {
		j.mu.Unlock()
		return 0, nil, ErrEvicted
	}
	path, base := j.oPath, j.base
	limit := j.durable.Load()
	if t.next <= j.base {
		for _, s := range j.segments {
			if t.next <= s.end() {
				path, base = s.path, s.base
				limit = min(limit, s.end()) // the seal made all of it durable
				break
			}
		}
	}
	j.mu.Unlock()

	if limit < t.next {
		return 0, nil, nil
	}
	n := limit - t.next + 1
	if n > int64(max) {
		n = int64(max)
	}

	if t.fPath != path {
		// First read, or the cursor moved to another file (the active
		// oplog was sealed, or a segment was exhausted).
		if t.f != nil {
			t.f.Close()
		}
		f, err := j.fs.OpenFile(path, os.O_RDONLY, 0)
		if err != nil {
			return 0, nil, err
		}
		t.f, t.fPath = f, path
	}

	want := int(n) * opRecSize
	if cap(t.buf) < want {
		t.buf = make([]byte, want)
	}
	off := oplogHdr + (t.next-1-base)*opRecSize
	got, rerr := t.f.ReadAt(t.buf[:want], off)
	if rerr != nil && rerr != io.EOF && !errors.Is(rerr, io.ErrUnexpectedEOF) {
		return 0, nil, rerr
	}
	// The record read ran without the lock, and a seal may have moved the
	// file at this path to its segment name and started a fresh one there
	// in between. A file's header never changes once the file has
	// records, so if it still matches the plan AFTER the record read, the
	// records read are from the planned file. On a mismatch drop the bytes
	// and the handle; the next call replans.
	if _, herr := t.f.ReadAt(t.hdr[:], 0); herr != nil {
		t.Close()
		return 0, nil, nil
	}
	if hb, ok := parseOplogHdr(t.hdr[:]); !ok || hb != base {
		t.Close()
		return 0, nil, nil
	}
	// Decode the complete CRC-valid prefix of whatever is there. A short
	// read or torn trailing entry leaves the cursor at the boundary.
	ops = DecodeOps(t.buf[:got])
	if len(ops) == 0 {
		if rerr == nil && got == want {
			// Full durable read that fails CRC: corruption, not a race.
			return 0, nil, errors.New("journal: corrupt record in durable log")
		}
		return 0, nil, nil
	}
	firstSeq = t.next
	t.next += int64(len(ops))
	return firstSeq, ops, nil
}
