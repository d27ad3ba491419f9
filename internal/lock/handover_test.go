package lock

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestHandOverAcrossPaths is the randomized check of the seams between
// the lock's two paths. Each round puts holders inside on whichever path
// the gate's position gives them, lets requests of random classes arrive
// behind them, and moves the gate at random before the arrivals, between
// them and before the releases — so a reader admitted on the fast path
// must grant the writer that queued behind it, a fast-path writer the
// readers behind it, a probe begins to listen while holders are inside,
// and stops while the queue is not empty. No wake-up may be lost (the
// round would hang), no grant may break exclusion, and once the gate is
// closed and the lock quiet the word must be back to zero.
func TestHandOverAcrossPaths(t *testing.T) {
	rounds := 100_000
	if testing.Short() {
		rounds = 10_000
	}
	rng := rand.New(rand.NewSource(1))
	var l FCFSRWMutex
	p := &countProbe{gate: new(Gate)}
	l.SetProbe(p)
	toggle := func() {
		switch rng.Intn(3) {
		case 0:
			p.gate.Open()
		case 1:
			p.gate.Close()
		}
	}

	var readers, writers atomic.Int32 // holders inside, as the holders see it
	var violations atomic.Int64
	enter := func(write bool) {
		if write {
			if writers.Add(1) != 1 || readers.Load() != 0 {
				violations.Add(1)
			}
		} else {
			readers.Add(1)
			if writers.Load() != 0 {
				violations.Add(1)
			}
		}
	}
	leave := func(write bool) {
		if write {
			writers.Add(-1)
		} else {
			readers.Add(-1)
		}
	}
	acquire := func(write bool) {
		if write {
			l.Lock()
		} else {
			l.RLock()
		}
		enter(write)
	}
	release := func(write bool) {
		leave(write)
		if write {
			l.Unlock()
		} else {
			l.RUnlock()
		}
	}

	for round := 0; round < rounds; round++ {
		toggle()
		// Holders: one writer, or one to three readers.
		held := []bool{true}
		if rng.Intn(2) == 0 {
			held = make([]bool, 1+rng.Intn(3))
		}
		for _, write := range held {
			acquire(write)
		}
		toggle()

		// Arrivals, one at a time so their order is known. A reader that
		// arrives behind nothing but readers is admitted at once.
		var wg sync.WaitGroup
		var granted atomic.Int32
		arrivals := 1 + rng.Intn(3)
		for i := 0; i < arrivals; i++ {
			write := rng.Intn(2) == 0
			wg.Add(1)
			go func() {
				defer wg.Done()
				acquire(write)
				granted.Add(1)
				release(write)
			}()
			for queued(&l)+int(granted.Load()) != i+1 {
				runtime.Gosched()
			}
			if rng.Intn(2) == 0 {
				toggle()
			}
		}

		toggle()
		for _, write := range held {
			release(write)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("round %d: lost wake-up: %d of %d arrivals granted, %d queued, word %#x",
				round, granted.Load(), arrivals, queued(&l), l.state.Load())
		}
		if s := l.state.Load() &^ slowBit; s != 0 {
			t.Fatalf("round %d: word %#x with nobody inside", round, l.state.Load())
		}
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d grants broke exclusion", v)
	}
	p.gate.Close()
	l.Lock() // a touch outside any epoch hands the word back
	l.Unlock()
	if s := l.state.Load(); s != 0 {
		t.Fatalf("word %#x at quiescence, want 0", s)
	}
	if p.acqR.Load() == 0 || p.acqW.Load() == 0 || p.contW.Load() == 0 {
		t.Fatalf("the probe heard nothing of a class: acquired R=%d W=%d, contended W=%d",
			p.acqR.Load(), p.acqW.Load(), p.contW.Load())
	}
}

// TestQueueKeepsItsStorage pins the dispatch bugfix: granting from a
// steadily contended queue neither replaces the queue's array nor leaves
// granted waiters reachable from it. The waiters are stand-ins the test
// releases on behalf of, so the queue's population is known exactly.
func TestQueueKeepsItsStorage(t *testing.T) {
	var l FCFSRWMutex
	l.Lock()
	join := func(write bool) {
		l.enterSlow()
		if l.queue == nil {
			l.queue = new(waitQueue)
		}
		l.queue.w = append(l.queue.w, &waiter{ready: make(chan struct{}), write: write})
		l.mu.Unlock()
	}
	for _, write := range []bool{true, false, false, true} {
		join(write)
	}
	held, base, room := l.queue, &l.queue.w[0], cap(l.queue.w)
	check := func(step string, queued int, word uint64) {
		t.Helper()
		if queued > 0 {
			word |= slowBit // a queue keeps the word off the fast path
		}
		if got := l.state.Load(); got != word {
			t.Fatalf("%s: word %#x, want %#x", step, got, word)
		}
		q := l.waiters()
		if len(q) != queued {
			t.Fatalf("%s: %d queued, want %d", step, len(q), queued)
		}
		if l.queue != held || &q[:room][0] != base || cap(q) != room {
			t.Fatalf("%s: the queue or its array was replaced (cap %d -> %d)", step, room, cap(q))
		}
		for _, w := range q[queued:room] {
			if w != nil {
				t.Fatalf("%s: a granted waiter is still reachable from the queue's array", step)
			}
		}
	}
	for i := 0; i < 100; i++ {
		l.Unlock() // W -> W
		check("writer to writer", 3, writerBit)
		l.Unlock() // W -> the run of two readers, up to the next writer
		check("writer to reader run", 1, 2*readerUnit)
		l.RUnlock()
		check("first reader out", 1, readerUnit)
		l.RUnlock() // the last reader out grants the writer
		check("reader to writer", 0, writerBit)
		for _, write := range []bool{true, false, false, true} {
			join(write)
		}
		check("refilled", 4, writerBit)
	}
}

// TestUncontendedAllocs: an acquire/release pair that does not queue
// allocates nothing on either path, with or without a probe.
func TestUncontendedAllocs(t *testing.T) {
	for _, tc := range probeModes() {
		var l VersionLock
		l.SetProbe(tc.probe)
		for name, pair := range map[string]func(){
			"RLock/RUnlock": func() { l.RLock(); l.RUnlock() },
			"Lock/Unlock":   func() { l.Lock(); l.Unlock() },
			"LockV/UnlockV": func() { l.LockV(); l.UnlockV() },
		} {
			if n := testing.AllocsPerRun(200, pair); n != 0 {
				t.Errorf("%s, %s: %v allocs per pair, want 0", tc.name, name, n)
			}
		}
	}
}

// TestLockSize pins the footprint every node of every tree pays: the
// state word, the probe's gate, the internal mutex, the pointer to the
// wait queue (allocated on first contention), the probe, and the 32 bytes
// of the open measurement. cbtree's node header rides on it
// (TestNodeSize there): 8 bytes more here take a cap-64 node past its
// 1,152-byte size class.
func TestLockSize(t *testing.T) {
	if got := unsafe.Sizeof(FCFSRWMutex{}); got > 80 {
		t.Errorf("FCFSRWMutex is %d bytes, want <= 80", got)
	}
	if got := unsafe.Sizeof(VersionLock{}); got > 88 {
		t.Errorf("VersionLock is %d bytes, want <= 88", got)
	}
}
