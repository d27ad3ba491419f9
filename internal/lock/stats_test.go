package lock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countProbe is a minimal Probe accumulating everything atomically. With
// a nil gate it always listens, which makes every count below exact.
type countProbe struct {
	gate         *Gate
	acqR, acqW   atomic.Int64
	contR, contW atomic.Int64
	waitR, waitW atomic.Int64
	heldR, heldW atomic.Int64
	relR, relW   atomic.Int64
	present      atomic.Int64
}

func (p *countProbe) Gate() *Gate { return p.gate }

func (p *countProbe) Acquired(write bool, waitNs int64) {
	acq, cont, wait := &p.acqR, &p.contR, &p.waitR
	if write {
		acq, cont, wait = &p.acqW, &p.contW, &p.waitW
	}
	acq.Add(1)
	if waitNs > 0 {
		cont.Add(1)
		wait.Add(waitNs)
	}
}

func (p *countProbe) Held(write bool, heldNs int64) {
	if write {
		p.heldW.Add(heldNs)
		p.relW.Add(1)
	} else {
		p.heldR.Add(heldNs)
		p.relR.Add(1)
	}
}

func (p *countProbe) WriterPresence(ns int64) { p.present.Add(ns) }

// TestUncontendedZeroWait verifies that acquisitions that never queue
// report zero queue-wait in both classes, and are all counted.
func TestUncontendedZeroWait(t *testing.T) {
	var l FCFSRWMutex
	p := &countProbe{}
	l.SetProbe(p)
	for i := 0; i < 100; i++ {
		l.RLock()
		l.RUnlock()
		l.Lock()
		l.Unlock()
	}
	if r, w := p.waitR.Load(), p.waitW.Load(); r != 0 || w != 0 {
		t.Fatalf("uncontended acquires recorded wait: R=%dns W=%dns", r, w)
	}
	if r, w := p.contR.Load(), p.contW.Load(); r != 0 || w != 0 {
		t.Fatalf("uncontended acquires counted as contended: R=%d W=%d", r, w)
	}
	if r, w := p.acqR.Load(), p.acqW.Load(); r != 100 || w != 100 {
		t.Fatalf("acquisition counts R=%d W=%d, want 100/100", r, w)
	}
	if r, w := p.relR.Load(), p.relW.Load(); r != 100 || w != 100 {
		t.Fatalf("release counts R=%d W=%d, want 100/100", r, w)
	}
}

// TestContendedWaitAccumulates verifies that a queued acquisition records
// a plausible nonzero wait.
func TestContendedWaitAccumulates(t *testing.T) {
	var l FCFSRWMutex
	p := &countProbe{}
	l.SetProbe(p)
	l.Lock()
	done := make(chan struct{})
	go func() {
		l.RLock()
		l.RUnlock()
		close(done)
	}()
	for queued(&l) != 1 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	l.Unlock()
	<-done
	if got := p.waitR.Load(); got < int64(5*time.Millisecond) {
		t.Fatalf("queued reader recorded %dns wait, want >= 5ms", got)
	}
	if p.contR.Load() != 1 || p.acqR.Load() != 1 {
		t.Fatalf("contended=%d acquired=%d, want 1/1", p.contR.Load(), p.acqR.Load())
	}
}

// TestProbeHoldIntegral checks that the per-class hold integrals reported
// through a Probe match the true hold durations: a writer holding for ~20ms
// and two overlapping readers each holding ~10ms.
func TestProbeHoldIntegral(t *testing.T) {
	var l FCFSRWMutex
	p := &countProbe{}
	l.SetProbe(p)

	l.Lock()
	time.Sleep(20 * time.Millisecond)
	l.Unlock()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.RLock()
			time.Sleep(10 * time.Millisecond)
			l.RUnlock()
		}()
	}
	wg.Wait()

	if got := p.heldW.Load(); got < int64(15*time.Millisecond) {
		t.Errorf("writer hold integral %v, want >= 15ms", time.Duration(got))
	}
	// Two readers × ~10ms each: the integral sums individual holds even
	// when they overlap in wall-clock time.
	if got := p.heldR.Load(); got < int64(15*time.Millisecond) {
		t.Errorf("reader hold integral %v, want >= 15ms", time.Duration(got))
	}
	if p.relR.Load() != 2 || p.relW.Load() != 1 {
		t.Errorf("release counts R=%d W=%d, want 2/1", p.relR.Load(), p.relW.Load())
	}
	// Writer presence covers at least the exclusive hold.
	if got := p.present.Load(); got < int64(15*time.Millisecond) {
		t.Errorf("writer presence %v, want >= 15ms", time.Duration(got))
	}
	if p.acqR.Load() != 2 || p.acqW.Load() != 1 {
		t.Errorf("acquire counts R=%d W=%d, want 2/1", p.acqR.Load(), p.acqW.Load())
	}
}

// TestProbeConcurrentCounts checks that a listening probe hears every
// acquisition and every release under concurrent traffic.
func TestProbeConcurrentCounts(t *testing.T) {
	var l FCFSRWMutex
	p := &countProbe{}
	l.SetProbe(p)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		write := i%2 == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				if write {
					l.Lock()
					l.Unlock()
				} else {
					l.RLock()
					l.RUnlock()
				}
			}
		}()
	}
	wg.Wait()
	if r, w := p.acqR.Load(), p.acqW.Load(); r != 4*500 || w != 4*500 {
		t.Fatalf("acquired R=%d W=%d, want 2000/2000", r, w)
	}
	if p.relR.Load() != 2000 || p.relW.Load() != 2000 {
		t.Fatalf("releases R=%d W=%d", p.relR.Load(), p.relW.Load())
	}
}

// TestClosedGateHearsNothing is the other half of the contract: while its
// probe's gate is closed a lock reports nothing, takes the fast path (the
// word returns to zero, slow bit included), and a hold that began before
// the gate opened is charged only from the opening.
func TestClosedGateHearsNothing(t *testing.T) {
	var l FCFSRWMutex
	p := &countProbe{gate: new(Gate)}
	l.SetProbe(p)
	for i := 0; i < 100; i++ {
		l.RLock()
		l.RUnlock()
		l.Lock()
		l.Unlock()
	}
	if n := p.acqR.Load() + p.acqW.Load() + p.relR.Load() + p.relW.Load(); n != 0 {
		t.Fatalf("closed gate: %d reports", n)
	}
	if s := l.state.Load(); s != 0 {
		t.Fatalf("closed gate: word %#x after balanced traffic, want 0", s)
	}

	l.Lock() // fast path, unmeasured
	time.Sleep(20 * time.Millisecond)
	p.gate.Open()
	time.Sleep(5 * time.Millisecond)
	l.Unlock() // measured: the hold counts from the opening only
	if got := time.Duration(p.heldW.Load()); got < 4*time.Millisecond || got > 15*time.Millisecond {
		t.Errorf("hold straddling the opening charged %v, want ~5ms (not the 25ms held)", got)
	}
	if p.relW.Load() != 1 || p.acqW.Load() != 0 {
		t.Errorf("release/acquire counts %d/%d, want 1/0: the acquire was outside the epoch", p.relW.Load(), p.acqW.Load())
	}
	if got := p.gate.Listened(); got < 4*time.Millisecond {
		t.Errorf("gate listened %v, want >= 4ms", got)
	}

	// The other edge: a hold that begins inside the epoch and ends after it
	// is an arrival the epoch heard and a release it did not; the writer's
	// presence counts up to the close, the hold time, with no release in
	// the epoch to be reported with, not at all.
	heldW, present := p.heldW.Load(), p.present.Load()
	l.Lock()
	time.Sleep(5 * time.Millisecond)
	p.gate.Close()
	time.Sleep(20 * time.Millisecond)
	l.Unlock() // closes the lock's measurement and hands the word back
	if p.acqW.Load() != 1 || p.relW.Load() != 1 || p.heldW.Load() != heldW {
		t.Errorf("hold straddling the close: acquired %d released %d held +%v, want 1, 1 (unchanged), +0",
			p.acqW.Load(), p.relW.Load(), time.Duration(p.heldW.Load()-heldW))
	}
	if got := time.Duration(p.present.Load() - present); got < 4*time.Millisecond || got > 15*time.Millisecond {
		t.Errorf("writer presence across the close +%v, want ~5ms (up to the close, not the 25ms held)", got)
	}
	if s := l.state.Load(); s != 0 {
		t.Fatalf("word %#x after the epoch, want 0", s)
	}
}
