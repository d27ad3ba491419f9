// Package lock provides a strictly first-come-first-served reader/writer
// mutex for real goroutines — the real-time counterpart of the FCFS lock
// queues in the paper's model (and of des.RWLock in the simulator).
//
// Unlike sync.RWMutex, whose acquisition order under contention is
// unspecified, FCFSRWMutex grants requests in arrival order: a reader that
// arrives behind a queued writer waits for that writer even though it is
// compatible with the current holders. This is the discipline the paper's
// analysis assumes, and it is starvation-free for both classes.
//
// The lock has two paths. An acquire or release that meets no conflicting
// holder, no queue and no measurement is one compare-and-swap on the
// lock's state word and nothing else: no internal mutex, no clock read, no
// counter. Everything else — a request that must queue, a release that
// may have to grant, and every transition of a lock whose probe is
// listening — runs under the lock's internal mutex, which keeps the FIFO
// waiter queue.
//
// Because the lock queue IS the object the paper analyzes, the mutex can
// measure itself without taxing what it measures: an optional Probe
// receives wait, hold-time and writer-presence telemetry so a live system
// can estimate the model's λ_r, λ_w, μ_r, μ_w and ρ_w from its own lock
// queues, and the probe's Gate says when it listens. While the gate is
// open every transition of the lock is timed and reported exactly; while
// it is closed the lock reads no clock and reports nothing. A probe that
// listens in short epochs therefore holds exact sums over the measured
// time, which is what its rates must be divided by.
package lock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Probe receives telemetry from one or more FCFSRWMutexes (typically all
// node locks of one B-tree level share a Probe). Implementations must be
// safe for concurrent use and cheap: Held and WriterPresence are called
// with the mutex's internal lock held.
type Probe interface {
	// Acquired is called once per acquisition that arrived while the probe
	// was listening. waitNs is the time the request spent queued; an
	// uncontended acquire reports 0.
	Acquired(write bool, waitNs int64)
	// Held is called once per release made while the probe is listening,
	// with the lock-hold nanoseconds accrued by that class since the
	// previous such release (the integral of the active-holder count over
	// listened time, so the per-class sum over all calls equals the sum of
	// the hold times inside it and the call count equals the number of
	// holds completed inside it).
	Held(write bool, heldNs int64)
	// WriterPresence reports listened nanoseconds during which at least
	// one writer was active or queued — the measured counterpart of the
	// model's ρ_w when divided by the time listened.
	WriterPresence(ns int64)
	// Gate returns the switch that says when the probe listens; nil means
	// always. It is read once, by SetProbe.
	Gate() *Gate
}

// Gate is a probe's listening switch, shared by every lock that reports
// to it, and the record of how long it has listened. Its word is odd
// while the probe listens, and every epoch of listening has its own odd
// value, so a lock can tell the epoch it anchored its integrals in from a
// later one. The zero value is closed. A nil *Gate always listens. Open
// and Close are for the one goroutine that drives the gate; the rest is
// safe anywhere.
type Gate struct {
	epoch    atomic.Uint32
	openedAt atomic.Int64 // when the current epoch began, or the last one
	closedAt atomic.Int64 // when the last epoch ended

	mu       sync.Mutex // orders Open, Close and Listened
	listened int64      // nanoseconds in closed epochs
}

// Open begins an epoch of listening; it does nothing to an open gate.
func (g *Gate) Open() {
	g.mu.Lock()
	if g.epoch.Load()&1 == 0 {
		g.openedAt.Store(nanotime())
		g.epoch.Add(1)
	}
	g.mu.Unlock()
}

// Close ends the epoch; it does nothing to a closed gate.
func (g *Gate) Close() {
	g.mu.Lock()
	if g.epoch.Load()&1 != 0 {
		now := nanotime()
		g.closedAt.Store(now)
		g.listened += now - g.openedAt.Load()
		g.epoch.Add(1)
	}
	g.mu.Unlock()
}

// Listening reports whether the gate is open.
func (g *Gate) Listening() bool { return g == nil || g.epoch.Load()&1 != 0 }

// Listened returns the total time the gate has been open, the open epoch
// included up to now: the measured time that counts taken through the
// gate are sums over.
func (g *Gate) Listened() time.Duration {
	g.mu.Lock()
	n := g.listened
	if g.epoch.Load()&1 != 0 {
		n += nanotime() - g.openedAt.Load()
	}
	g.mu.Unlock()
	return time.Duration(n)
}

// alwaysOpen stands in for the nil Gate of a probe that always listens.
var alwaysOpen = func() *Gate { g := new(Gate); g.Open(); return g }()

// monoBase anchors an allocation-free monotonic clock: time.Since on a
// time.Time with a monotonic reading compiles to a nanotime call.
var monoBase = time.Now()

func nanotime() int64 { return int64(time.Since(monoBase)) }

// The state word: who holds the lock, and whether it may be changed
// without l.mu.
const (
	writerBit  uint64 = 1 << 0 // a writer holds the lock
	slowBit    uint64 = 1 << 1 // the word changes only under l.mu
	readerUnit uint64 = 1 << 2 // the reader count sits above the two bits
)

// FCFSRWMutex is a fair FIFO reader/writer mutex. The zero value is ready
// to use. It must not be copied after first use.
//
// Two invariants carry the fast path. While the slow bit is set, the
// state word is changed only by a goroutine holding mu; and the slow bit
// is set and cleared only under mu, cleared only when the queue is empty
// and no measurement is open. The fast path's compare-and-swaps succeed
// only on a word whose slow bit is clear, so a queued request or an open
// measurement sends every arrival and every release through mu: nothing
// barges past the queue, and nothing moves unmeasured inside an epoch.
type FCFSRWMutex struct {
	mu    sync.Mutex
	queue *waitQueue // nil until the first request queues, then kept
	probe Probe

	// The open measurement, guarded by mu. epoch is the gate value the
	// integrals below were anchored under, 0 when none is open.
	epoch      uint32
	wPresent   int32 // writers active or queued
	holdStamp  int64 // last transition of the holders
	pend       int64 // the holders' hold ns accrued since their class last released
	wPresStamp int64 // when wPresent last rose above 0 or was last flushed

	// The fast path reads these two words and nothing else. They come
	// last, so a struct that embeds the lock can put its own hot words on
	// the same cache line as them (cbtree's node header does).
	state atomic.Uint64
	gate  *Gate // probe's gate, alwaysOpen for a nil one; nil without a probe
}

type waiter struct {
	ready chan struct{}
	write bool
}

// waitQueue is a lock's FIFO of queued requests. It is allocated by the
// first request that queues and then kept, so a lock that never meets
// contention carries one pointer for it, not a slice header.
type waitQueue struct{ w []*waiter }

// waiters returns the queue, nil before any request has queued. Called
// under mu.
func (l *FCFSRWMutex) waiters() []*waiter {
	if l.queue == nil {
		return nil
	}
	return l.queue.w
}

// SetProbe attaches a telemetry probe. It must be called before the mutex
// is used concurrently (e.g. right after creating the structure the lock
// guards); passing nil detaches. A probe costs a lock nothing while its
// gate is closed beyond one load of the gate per call; while the gate is
// open every acquire and release takes the internal mutex, reads the
// clock once and reports. Time accrued before attachment is not
// inherited.
func (l *FCFSRWMutex) SetProbe(p Probe) {
	l.mu.Lock()
	l.probe, l.gate, l.epoch = p, nil, 0
	if p != nil {
		if l.gate = p.Gate(); l.gate == nil {
			l.gate = alwaysOpen
		}
		// No measurement is open, so holdStamp is free to carry the time
		// of attachment to the anchoring in measureLocked.
		l.holdStamp = nanotime()
	}
	l.mu.Unlock()
}

// listening reports whether this lock's transitions are being measured.
func (l *FCFSRWMutex) listening() bool {
	g := l.gate
	return g != nil && g.Listening()
}

// enterSlow takes mu and sets the slow bit, after which the word is this
// goroutine's to change until leaveSlow. It returns the word.
func (l *FCFSRWMutex) enterSlow() uint64 {
	l.mu.Lock()
	return l.state.Or(slowBit) | slowBit
}

// leaveSlow releases mu, first handing the word back to the fast path
// when nothing is queued and nothing is being measured.
func (l *FCFSRWMutex) leaveSlow() {
	if len(l.waiters()) == 0 && l.epoch == 0 {
		l.state.And(^slowBit)
	}
	l.mu.Unlock()
}

// measureLocked brings the lock's measurement in line with its probe's
// gate and reports whether this transition is measured, with the time if
// so. Called under mu with the slow bit set, s being the word.
//
// A lock first touched in an epoch anchors its integrals at the epoch's
// start, from the holders in s and the writers in the queue: they have
// been there since, because every transition inside an epoch comes this
// way. A lock first touched after its epoch closed charges the writer
// presence up to the close and drops the pending hold time, which has no
// release inside the epoch to be reported with: a hold that straddles the
// end of an epoch is charged up to the lock's last measured release.
func (l *FCFSRWMutex) measureLocked(s uint64) (now int64, on bool) {
	g := l.gate
	if g == nil {
		return 0, false
	}
	e := g.epoch.Load()
	if e == l.epoch {
		if e&1 == 0 {
			return 0, false
		}
		return nanotime(), true
	}
	if l.epoch != 0 && e == l.epoch+1 && l.wPresent > 0 {
		// closedAt belongs to the lock's epoch only if no other has
		// closed since it was read.
		if end := g.closedAt.Load(); g.epoch.Load() == e && end > l.wPresStamp {
			l.probe.WriterPresence(end - l.wPresStamp)
		}
	}
	if e&1 == 0 {
		l.epoch = 0
		return 0, false
	}
	// holdStamp is the last measured transition of an earlier epoch, or
	// the time the probe was attached if that was inside this one.
	start := max(g.openedAt.Load(), l.holdStamp)
	l.epoch = e
	l.holdStamp, l.wPresStamp = start, start
	l.pend = 0
	l.wPresent = int32(s & writerBit)
	for _, w := range l.waiters() {
		if w.write {
			l.wPresent++
		}
	}
	return nanotime(), true
}

// chargeHoldLocked accrues hold time for the holders in s since the last
// transition. Called under mu, in an open measurement. Readers and a
// writer never hold at once and every release reports pend and zeroes
// it, so pend is 0 whenever the holders' class changes: one sum serves
// both classes.
func (l *FCFSRWMutex) chargeHoldLocked(now int64, s uint64) {
	if dt := now - l.holdStamp; dt > 0 {
		l.pend += int64(s/readerUnit+s&writerBit) * dt
	}
	l.holdStamp = now
}

// writerArrivedLocked notes a writer entering the system (active or
// queued), flushing the presence integral so it stays fresh under
// sustained load. Called under mu, in an open measurement.
func (l *FCFSRWMutex) writerArrivedLocked(now int64) {
	if l.wPresent > 0 {
		l.probe.WriterPresence(now - l.wPresStamp)
	}
	l.wPresStamp = now
	l.wPresent++
}

// RLock acquires the lock shared. It blocks while a writer holds the lock
// or any request (of either class) is queued ahead.
func (l *FCFSRWMutex) RLock() {
	if !l.listening() {
		for {
			s := l.state.Load()
			if s&(writerBit|slowBit) != 0 {
				break
			}
			if l.state.CompareAndSwap(s, s+readerUnit) {
				return
			}
		}
	}
	l.acquireSlow(false)
}

// Lock acquires the lock exclusive, in FIFO order.
func (l *FCFSRWMutex) Lock() {
	if !l.listening() && l.state.CompareAndSwap(0, writerBit) {
		return
	}
	l.acquireSlow(true)
}

// acquireSlow is the acquire path under mu: grant at once when nothing
// conflicts and nothing is queued; else join the queue and wait for a
// release to grant. An acquisition that arrives outside an epoch reports
// nothing even if it queues, so every count the probe holds was taken
// over listened time.
func (l *FCFSRWMutex) acquireSlow(write bool) {
	s := l.enterSlow()
	now, on := l.measureLocked(s)
	p := l.probe
	conflict := writerBit // a reader conflicts with a writer
	if write {
		conflict = ^slowBit // a writer with every holder
	}
	if s&conflict == 0 && len(l.waiters()) == 0 {
		if on {
			l.chargeHoldLocked(now, s)
		}
		if write {
			if on {
				l.writerArrivedLocked(now)
			}
			l.state.Add(writerBit)
		} else {
			l.state.Add(readerUnit)
		}
		l.leaveSlow()
		if on {
			p.Acquired(write, 0)
		}
		return
	}
	w := &waiter{ready: make(chan struct{}), write: write}
	if l.queue == nil {
		l.queue = new(waitQueue)
	}
	l.queue.w = append(l.queue.w, w)
	if write && on {
		l.writerArrivedLocked(now)
	}
	l.mu.Unlock() // the queue is not empty: the slow bit stays
	<-w.ready
	if on {
		p.Acquired(write, nanotime()-now)
	}
}

// RUnlock releases a shared hold.
func (l *FCFSRWMutex) RUnlock() {
	if !l.listening() {
		for {
			s := l.state.Load()
			if s&slowBit != 0 {
				break
			}
			if s < readerUnit {
				panic("lock: RUnlock without RLock")
			}
			if l.state.CompareAndSwap(s, s-readerUnit) {
				return
			}
		}
	}
	l.releaseSlow(false)
}

// Unlock releases an exclusive hold.
func (l *FCFSRWMutex) Unlock() {
	if !l.listening() && l.state.CompareAndSwap(writerBit, 0) {
		return
	}
	l.releaseSlow(true)
}

// releaseSlow is the release path under mu: report the hold if measured,
// then grant the head of the queue.
func (l *FCFSRWMutex) releaseSlow(write bool) {
	s := l.enterSlow()
	held, msg := readerUnit, "lock: RUnlock without RLock"
	if write {
		held, msg = writerBit, "lock: Unlock without Lock"
	}
	if write && s&writerBit == 0 || !write && s < readerUnit {
		l.leaveSlow()
		panic(msg)
	}
	now, on := l.measureLocked(s)
	if on {
		l.chargeHoldLocked(now, s)
		l.probe.Held(write, l.pend)
		l.pend = 0
		if write {
			// A writer leaves the system only here: a queued writer
			// always becomes active first.
			l.probe.WriterPresence(now - l.wPresStamp)
			l.wPresStamp = now
			l.wPresent--
		}
	}
	l.dispatchLocked(l.state.Add(-held))
	l.leaveSlow()
}

// dispatchLocked grants the longest-waiting compatible prefix of the
// queue: one writer, or a run of readers up to the first queued writer.
// Granted waiters leave the queue's storage, which is kept: the rest is
// copied down and the vacated slots cleared, so a steadily contended lock
// neither pins the waiters it has granted nor walks off the end of its
// array. Called under mu right after a release, s being the word it left;
// the hold integral is charged up to that release already, and the new
// holders are charged from it.
func (l *FCFSRWMutex) dispatchLocked(s uint64) {
	q := l.waiters()
	if s&writerBit != 0 || len(q) == 0 {
		return
	}
	n := 0 // waiters to grant
	if q[0].write {
		if s >= readerUnit {
			return
		}
		n = 1
		l.state.Add(writerBit)
	} else {
		for n < len(q) && !q[n].write {
			n++
		}
		l.state.Add(uint64(n) * readerUnit)
	}
	for _, w := range q[:n] {
		close(w.ready)
	}
	rest := copy(q, q[n:])
	clear(q[rest:])
	l.queue.w = q[:rest]
}
