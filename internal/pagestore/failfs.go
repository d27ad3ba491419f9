package pagestore

// FailFS is the storage counterpart of internal/faults: a deterministic
// failpoint layer under the pagestore and journal. It wraps another FS
// (usually OSFS) and injects the failure modes real disks and kernels
// exhibit:
//
//   - torn / short writes: the Nth write persists only a prefix of its
//     payload, then errors (a crash or I/O error mid-write);
//   - read errors: the Nth read fails (a medium error under a page the
//     buffer pool had evicted);
//   - fsync errors: the Nth Sync fails — the fsyncgate scenario, where
//     previously written data may or may not be durable and the only
//     safe reaction is to stop acknowledging;
//   - crash-at-Nth-syscall: after N mutating syscalls everything, reads
//     included, fails with ErrCrashed and nothing further reaches the
//     wrapped FS — the on-disk state is frozen exactly as a kill -9
//     at that syscall would leave it, so a test can reopen the real
//     files with OSFS and check recovery.
//
// Mutating syscalls (Write, WriteAt, Truncate, Sync, Rename) share one
// global 1-based counter across every file opened through the FailFS, so
// a deterministic workload can be crash-swept at every prefix of its
// syscall trace.

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// ErrInjected is the error injected by a planned write or sync failure.
var ErrInjected = errors.New("pagestore: injected I/O fault")

// ErrCrashed is returned by every operation after the crash point.
var ErrCrashed = errors.New("pagestore: simulated crash (process is gone)")

// ErrNoSpace is the injected disk-full error: once a WriteBudget is
// exhausted, every further write fails with it (short-writing the last
// partial payload), exactly as ENOSPC behaves on a full filesystem.
var ErrNoSpace = errors.New("pagestore: injected ENOSPC (disk full)")

// FailPlan schedules faults against the shared mutating-syscall counter.
// Zero values mean "never".
type FailPlan struct {
	// FailWriteAt makes the mutating syscall with this 1-based index fail
	// with ErrInjected, if it is a Write/WriteAt: only the first TornBytes
	// bytes of the payload are persisted (0 = nothing lands — a pure short
	// write). If the syscall at that index is not a write it is unaffected.
	FailWriteAt int64
	TornBytes   int

	// FailSyncAt makes the Nth Sync (counted separately, 1-based) fail
	// with ErrInjected. The file contents are left as the kernel had them:
	// nothing is durably guaranteed either way — exactly the contract a
	// failed fsync gives.
	FailSyncAt int64

	// FailReadAt makes the Nth Read/ReadAt (counted separately, 1-based)
	// fail with ErrInjected, reading nothing.
	FailReadAt int64

	// CrashAt freezes the world at the mutating syscall with this 1-based
	// index: that syscall and everything after it (reads too) fail with
	// ErrCrashed and never reach the wrapped FS.
	CrashAt int64

	// WriteBudget > 0 simulates a disk with that many writable bytes
	// left: writes consume it, and the write that would exceed it
	// persists only the remaining budget (a short write) and fails with
	// ErrNoSpace, as does every write after. Reads, syncs, and renames
	// are unaffected — metadata operations usually still succeed on a
	// full disk.
	WriteBudget int64
}

// FailFS wraps an FS with the plan. Safe for concurrent use.
type FailFS struct {
	inner FS
	mu    sync.Mutex
	plan  FailPlan

	ops     int64 // mutating syscalls observed
	syncs   int64 // Syncs observed
	reads   int64 // Reads and ReadAts observed
	written int64 // payload bytes written (the counter WriteBudget draws on)
	crashed bool

	// AroundSync, when non-nil, runs in place of every Sync the plan lets
	// through: it gets the name the file was opened under (a rename does
	// not change it) and the wrapped file, calls f.Sync itself, and what it
	// returns is what Sync returns. A test stalls an fsync on a channel
	// with it, or looks at the file on either side of one. Set it while
	// nothing is using the FS.
	AroundSync func(name string, f File) error
}

// NewFailFS wraps inner (nil = OSFS) with plan.
func NewFailFS(inner FS, plan FailPlan) *FailFS {
	if inner == nil {
		inner = OSFS
	}
	return &FailFS{inner: inner, plan: plan}
}

// Ops returns the number of mutating syscalls observed so far. A test can
// run a workload once with an inert plan to learn its syscall count, then
// crash-sweep every prefix.
func (fs *FailFS) Ops() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops
}

// Syncs returns the number of Sync calls observed so far (the counter
// FailSyncAt is matched against).
func (fs *FailFS) Syncs() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.syncs
}

// Reads returns the number of Read and ReadAt calls observed so far (the
// counter FailReadAt is matched against).
func (fs *FailFS) Reads() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.reads
}

// BytesWritten returns the total payload bytes written so far. A test
// can run a workload once with no budget to size a WriteBudget that
// fails partway through it.
func (fs *FailFS) BytesWritten() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.written
}

// Crashed reports whether the crash point has been reached.
func (fs *FailFS) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

// mutOp accounts one mutating syscall. It returns (allow, err): err when
// the syscall must fail outright, allow = payload prefix length to
// persist when a torn write fires (-1 = persist everything).
func (fs *FailFS) mutOp(isWrite bool, payloadLen int) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return 0, ErrCrashed
	}
	fs.ops++
	if fs.plan.CrashAt > 0 && fs.ops >= fs.plan.CrashAt {
		fs.crashed = true
		return 0, ErrCrashed
	}
	if isWrite && fs.plan.FailWriteAt > 0 && fs.ops == fs.plan.FailWriteAt {
		torn := fs.plan.TornBytes
		if torn > payloadLen {
			torn = payloadLen
		}
		return torn, ErrInjected
	}
	if isWrite {
		if fs.plan.WriteBudget > 0 && fs.written+int64(payloadLen) > fs.plan.WriteBudget {
			remain := fs.plan.WriteBudget - fs.written
			if remain < 0 {
				remain = 0
			}
			fs.written = fs.plan.WriteBudget
			return int(remain), ErrNoSpace
		}
		fs.written += int64(payloadLen)
	}
	return -1, nil
}

// syncOp accounts one Sync (which is also a mutating syscall for the
// crash counter).
func (fs *FailFS) syncOp() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	fs.ops++
	fs.syncs++
	if fs.plan.CrashAt > 0 && fs.ops >= fs.plan.CrashAt {
		fs.crashed = true
		return ErrCrashed
	}
	if fs.plan.FailSyncAt > 0 && fs.syncs == fs.plan.FailSyncAt {
		return ErrInjected
	}
	return nil
}

// readOp gates non-mutating syscalls: they pass until the crash, except
// for the one data read the plan fails.
func (fs *FailFS) readOp(isRead bool) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	if isRead {
		fs.reads++
		if fs.reads == fs.plan.FailReadAt {
			return ErrInjected
		}
	}
	return nil
}

// OpenFile opens through the wrapped FS, returning a fault-injecting File.
func (fs *FailFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err := fs.readOp(false); err != nil {
		return nil, err
	}
	f, err := fs.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &failFile{fs: fs, f: f, name: name}, nil
}

// Rename counts as a mutating syscall.
func (fs *FailFS) Rename(oldpath, newpath string) error {
	if _, err := fs.mutOp(false, 0); err != nil {
		return err
	}
	return fs.inner.Rename(oldpath, newpath)
}

// Remove counts as a mutating syscall (segment pruning in the journal's
// retention layer; see journal.SetRetention).
func (fs *FailFS) Remove(name string) error {
	if _, err := fs.mutOp(false, 0); err != nil {
		return err
	}
	if r, ok := fs.inner.(interface{ Remove(string) error }); ok {
		return r.Remove(name)
	}
	return os.Remove(name)
}

// failFile routes every syscall through the FailFS's plan.
type failFile struct {
	fs   *FailFS
	f    File
	name string
}

func (f *failFile) write(p []byte, do func(q []byte) (int, error)) (int, error) {
	allow, err := f.fs.mutOp(true, len(p))
	if err != nil {
		if allow > 0 && (errors.Is(err, ErrInjected) || errors.Is(err, ErrNoSpace)) {
			// Torn or out-of-space write: a prefix lands before the failure.
			if n, werr := do(p[:allow]); werr != nil {
				return n, werr
			}
			return allow, fmt.Errorf("torn write after %d/%d bytes: %w", allow, len(p), err)
		}
		return 0, err
	}
	return do(p)
}

func (f *failFile) Write(p []byte) (int, error) {
	return f.write(p, func(q []byte) (int, error) { return f.f.Write(q) })
}

func (f *failFile) WriteAt(p []byte, off int64) (int, error) {
	return f.write(p, func(q []byte) (int, error) { return f.f.WriteAt(q, off) })
}

func (f *failFile) Truncate(size int64) error {
	if _, err := f.fs.mutOp(false, 0); err != nil {
		return err
	}
	return f.f.Truncate(size)
}

func (f *failFile) Sync() error {
	if err := f.fs.syncOp(); err != nil {
		return err
	}
	if around := f.fs.AroundSync; around != nil {
		return around(f.name, f.f)
	}
	return f.f.Sync()
}

func (f *failFile) Read(p []byte) (int, error) {
	if err := f.fs.readOp(true); err != nil {
		return 0, err
	}
	return f.f.Read(p)
}

func (f *failFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.fs.readOp(true); err != nil {
		return 0, err
	}
	return f.f.ReadAt(p, off)
}

func (f *failFile) Seek(offset int64, whence int) (int64, error) {
	if err := f.fs.readOp(false); err != nil {
		return 0, err
	}
	return f.f.Seek(offset, whence)
}

func (f *failFile) Stat() (os.FileInfo, error) {
	if err := f.fs.readOp(false); err != nil {
		return nil, err
	}
	return f.f.Stat()
}

// Close always reaches the real file, even after a crash: the simulated
// process is gone, but the test process must not leak descriptors.
func (f *failFile) Close() error { return f.f.Close() }
