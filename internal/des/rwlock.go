package des

import (
	"btreeperf/internal/stats"
)

// Class distinguishes shared (reader) from exclusive (writer) lock requests.
type Class int

const (
	// Read requests are shared: any number of readers may hold the lock
	// together.
	Read Class = iota
	// Write requests are exclusive of both readers and writers.
	Write
)

func (c Class) String() string {
	if c == Read {
		return "R"
	}
	return "W"
}

// RWLock is a first-come-first-served reader/writer lock in virtual time —
// the paper's lock queue. Grants are strictly FIFO: a reader arriving
// behind a queued writer waits even though it is compatible with the
// current holders. The lock records the statistics the analytical model
// predicts: per-class waiting and holding times and the time-average
// probability that a writer is present in the system (the paper's ρ_w).
type RWLock struct {
	env     *Environment
	name    string
	readers int
	writer  bool
	queue   []*waiter

	waitR, waitW stats.Welford
	holdR, holdW stats.Welford
	rhoW         stats.TimeWeighted
	queueLen     stats.TimeWeighted
	grantsR      int64
	grantsW      int64
	queuedW      int // writers currently queued (excludes the active writer)
}

type waiter struct {
	p       *Proc
	class   Class
	arrived float64
}

// Grant is a held lock; pass it to RWLock.Release.
type Grant struct {
	lock    *RWLock
	class   Class
	granted float64
}

// Class returns the grant's lock class.
func (g *Grant) Class() Class { return g.class }

// NewRWLock creates a lock bound to env.
func NewRWLock(env *Environment, name string) *RWLock {
	l := &RWLock{env: env, name: name}
	l.rhoW.Set(env.now, 0)
	l.queueLen.Set(env.now, 0)
	return l
}

// Acquire blocks the calling process until the lock is granted in FCFS
// order and returns the grant.
func (l *RWLock) Acquire(p *Proc, c Class) *Grant {
	arrived := l.env.now
	if c == Write {
		l.noteWriters(+1)
	}
	if l.grantable(c) && len(l.queue) == 0 {
		return l.grant(p, c, arrived)
	}
	w := &waiter{p: p, class: c, arrived: arrived}
	l.queue = append(l.queue, w)
	l.noteQueue()
	p.park()
	// The releaser granted us before waking: record the wait.
	return l.finishGrant(c, arrived)
}

// grantable reports whether a request of class c is compatible with the
// current holders.
func (l *RWLock) grantable(c Class) bool {
	if c == Read {
		return !l.writer
	}
	return !l.writer && l.readers == 0
}

// grant marks the lock held for class c and returns the Grant (immediate
// grant path — no queueing).
func (l *RWLock) grant(p *Proc, c Class, arrived float64) *Grant {
	l.hold(c)
	return l.finishGrant(c, arrived)
}

// hold updates holder state for a newly granted class-c request.
func (l *RWLock) hold(c Class) {
	if c == Read {
		l.readers++
	} else {
		l.writer = true
	}
}

// finishGrant records wait statistics and builds the Grant. The caller (or
// the releaser, for queued requests) has already updated holder state.
func (l *RWLock) finishGrant(c Class, arrived float64) *Grant {
	now := l.env.now
	if c == Read {
		l.waitR.Add(now - arrived)
		l.grantsR++
	} else {
		l.waitW.Add(now - arrived)
		l.grantsW++
	}
	return &Grant{lock: l, class: c, granted: now}
}

// Release returns the lock and hands it to the longest-waiting compatible
// prefix of the queue (one writer, or a run of readers).
func (l *RWLock) Release(g *Grant) {
	if g == nil || g.lock != l {
		panic("des: Release of foreign grant")
	}
	now := l.env.now
	if g.class == Read {
		if l.readers <= 0 {
			panic("des: Release without held read lock")
		}
		l.readers--
		l.holdR.Add(now - g.granted)
	} else {
		if !l.writer {
			panic("des: Release without held write lock")
		}
		l.writer = false
		l.holdW.Add(now - g.granted)
		l.noteWriters(-1)
	}
	l.dispatch()
}

// dispatch grants the head of the queue while compatible: either one
// writer, or consecutive readers up to the first queued writer.
func (l *RWLock) dispatch() {
	for len(l.queue) > 0 {
		head := l.queue[0]
		if !l.grantable(head.class) {
			break
		}
		l.queue = l.queue[1:]
		l.hold(head.class)
		head.p.wake()
		if head.class == Write {
			break
		}
	}
	l.noteQueue()
}

// noteWriters adjusts the queued+active writer count and the ρ_w signal.
func (l *RWLock) noteWriters(d int) {
	l.queuedW += d
	v := 0.0
	if l.queuedW > 0 {
		v = 1
	}
	l.rhoW.Set(l.env.now, v)
}

func (l *RWLock) noteQueue() {
	l.queueLen.Set(l.env.now, float64(len(l.queue)))
}

// LockStats is a snapshot of a lock's measurements.
type LockStats struct {
	Name      string
	GrantsR   int64
	GrantsW   int64
	MeanWaitR float64
	MeanWaitW float64
	MeanHoldR float64
	MeanHoldW float64
	RhoW      float64 // time-average P(writer in system) up to the snapshot time
	QueueLen  float64 // time-average queue length
}

// Snapshot returns the lock's statistics evaluated at virtual time t.
func (l *RWLock) Snapshot(t float64) LockStats {
	return LockStats{
		Name:      l.name,
		GrantsR:   l.grantsR,
		GrantsW:   l.grantsW,
		MeanWaitR: l.waitR.Mean(),
		MeanWaitW: l.waitW.Mean(),
		MeanHoldR: l.holdR.Mean(),
		MeanHoldW: l.holdW.Mean(),
		RhoW:      l.rhoW.Average(t),
		QueueLen:  l.queueLen.Average(t),
	}
}

// WaitWelford exposes the per-class waiting-time accumulators (for merging
// across locks of one tree level).
func (l *RWLock) WaitWelford(c Class) *stats.Welford {
	if c == Read {
		return &l.waitR
	}
	return &l.waitW
}
