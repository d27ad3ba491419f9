package lock

import "sync/atomic"

// VersionProbe extends Probe with latch-free read telemetry. A tree level
// whose locks report into a VersionProbe additionally learns how often
// optimistic readers had to restart a validation at that level and how
// often a descent exhausted its retry budget and fell back to locking —
// the OLC counterparts of the R-wait statistics the blocking algorithms
// report (an OLC reader never queues, so its cost shows up as restarts,
// not waits).
type VersionProbe interface {
	Probe
	// ReadRestart is called once per failed version validation.
	ReadRestart()
	// ReadFallback is called once per descent that exhausted its retries
	// and re-descended under locks.
	ReadFallback()
}

// OLCMaxAttempts bounds latch-free descent attempts before an OLC
// operation falls back to the locked path. The tree (cbtree), the
// simulator (sim) and the analysis (core), which truncates its restart
// geometric series at the same depth, all read this one constant.
const OLCMaxAttempts = 3

// VersionLock is an FCFSRWMutex extended with a seqlock-style version
// word for optimistic lock-coupling: even = stable, odd = write-locked.
// Writers acquire the embedded FCFS W lock as usual but enter their
// critical sections through LockV, which bumps the version to odd, and
// leave through UnlockV (they changed something a reader can see: the
// version moves on to the next even value) or UnlockClean (they changed
// nothing: the version returns to the value it had, so overlapping
// readers are not restarted for nothing). Readers take no lock at all:
// they call ReadBegin before touching the protected state and Validate
// after, retrying (or falling back to the embedded lock) when a writer
// was active anywhere in between.
//
// Contract for the protected state. Readers read it in place, while a
// writer may be changing it, and trust nothing they read until Validate
// succeeds. For that to be well-defined in Go's memory model:
//
//   - every location a latch-free reader touches is written only with
//     sync/atomic stores, inside a LockV section, and read by those
//     readers only with sync/atomic loads (holders of the embedded lock
//     may read plainly: the lock orders them with the writers). Since
//     atomics are sequentially consistent, a reader that saw any store
//     of a section is certain to see that section's odd version, or a
//     later one, in Validate;
//   - what an unvalidated read returns must be safe to use up to the
//     Validate call: an index stays inside storage whose bounds never
//     change, a pointer leads to a value that stays valid (the garbage
//     collector keeps it alive) or is nil and is not followed before
//     Validate. Anything else — a count, a key, a value — is discarded
//     when Validate fails.
//
// R locks on the embedded mutex do not bump the version: they are the
// fallback path and conflict with writers through the lock queue, not
// through validation.
//
// Invariants (see TestVersionLockSeqlockProperties):
//   - the version is odd exactly between a writer's LockV and its
//     UnlockV or UnlockClean,
//   - each LockV/UnlockV pair (a dirty section) advances it by exactly
//     2, each LockV/UnlockClean pair leaves it where it was,
//   - so the even values readers validate against never decrease, and
//     never repeat once a dirty section has passed.
//
// The zero value is ready to use and has version 0 (stable).
type VersionLock struct {
	FCFSRWMutex
	ver atomic.Uint64
}

// LockV acquires the exclusive lock and bumps the version to odd,
// invalidating every optimistic read that overlaps the critical section.
func (l *VersionLock) LockV() {
	l.Lock()
	l.ver.Add(1)
}

// UnlockV ends a critical section that changed reader-visible state: it
// bumps the version to the next even value and releases the exclusive
// lock.
func (l *VersionLock) UnlockV() {
	l.ver.Add(1)
	l.Unlock()
}

// UnlockClean ends a critical section that changed nothing a reader can
// see (a writer passing through on its way right, a delete of an absent
// key): it restores the even version LockV displaced, so a reader whose
// ReadBegin preceded the section still validates, and releases the
// exclusive lock.
func (l *VersionLock) UnlockClean() {
	l.ver.Add(^uint64(0))
	l.Unlock()
}

// ReadBegin samples the version at the start of an optimistic read.
// ok is false when a writer currently holds the lock (odd version); the
// caller should restart rather than read state mid-mutation.
func (l *VersionLock) ReadBegin() (v uint64, ok bool) {
	v = l.ver.Load()
	return v, v&1 == 0
}

// Validate reports whether no writer changed the protected state since
// ReadBegin returned v: the version is unchanged (and hence still even).
func (l *VersionLock) Validate(v uint64) bool {
	return l.ver.Load() == v
}

// Version returns the current version word (odd while a writer holds the
// lock).
func (l *VersionLock) Version() uint64 { return l.ver.Load() }
