package lock

import (
	"runtime"
	"sync"
	"testing"
)

// probeModes are the states a lock can be in: nothing attached, a probe
// whose gate is closed (what a served tree's locks see between epochs), a
// probe that is listening (what they see inside one, and what every lock
// paid on every call before the fast path), and a probe with no gate,
// which always listens.
func probeModes() []struct {
	name  string
	probe Probe
} {
	closed, open := new(Gate), new(Gate)
	open.Open()
	return []struct {
		name  string
		probe Probe
	}{
		{"no-probe", nil},
		{"probe-idle", &countProbe{gate: closed}},
		{"probe-listening", &countProbe{gate: open}},
		{"probe-always", &countProbe{}},
	}
}

// benchModes runs a benchmark body on a lock in each of the first three
// modes; the fourth costs what the third does.
func benchModes(b *testing.B, run func(b *testing.B, l *VersionLock)) {
	for _, m := range probeModes()[:3] {
		b.Run(m.name, func(b *testing.B) {
			var l VersionLock
			l.SetProbe(m.probe)
			b.ReportAllocs()
			run(b, &l)
		})
	}
}

func BenchmarkFCFSRLock(b *testing.B) {
	benchModes(b, func(b *testing.B, l *VersionLock) {
		for b.Loop() {
			l.RLock()
			l.RUnlock()
		}
	})
}

func BenchmarkFCFSLock(b *testing.B) {
	benchModes(b, func(b *testing.B, l *VersionLock) {
		for b.Loop() {
			l.Lock()
			l.Unlock()
		}
	})
}

func BenchmarkVersionLockV(b *testing.B) {
	benchModes(b, func(b *testing.B, l *VersionLock) {
		for b.Loop() {
			l.LockV()
			l.UnlockV()
		}
	})
}

// BenchmarkFCFSParallelRLock is the root's case: every operation of every
// worker takes the same lock shared.
func BenchmarkFCFSParallelRLock(b *testing.B) {
	for _, g := range []struct {
		name string
		n    int
	}{{"goroutines=2", 2}, {"goroutines=procs", runtime.GOMAXPROCS(0)}} {
		b.Run(g.name, func(b *testing.B) {
			benchModes(b, func(b *testing.B, l *VersionLock) {
				var wg sync.WaitGroup
				for i := 0; i < g.n; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := 0; j < b.N/g.n; j++ {
							l.RLock()
							l.RUnlock()
						}
					}()
				}
				wg.Wait()
			})
		})
	}
}

// BenchmarkFCFSHandoff prices the contended path: one op is one release
// that grants a queued request, the blocked goroutine's wake-up included.
// allocs/op is what the queue costs a waiter (its queue entry and the
// channel it sleeps on); the queue's own array is allocated once.
func BenchmarkFCFSHandoff(b *testing.B) {
	// W-W: two goroutines pass the lock back and forth, each queueing
	// behind the other before it is released.
	b.Run("W-W", func(b *testing.B) {
		var l FCFSRWMutex
		b.ReportAllocs()
		l.Lock()
		done := make(chan struct{})
		pass := func(n int) {
			for i := 0; i < n; i++ {
				for queued(&l) == 0 {
					runtime.Gosched()
				}
				l.Unlock() // grants the other
				l.Lock()   // queues behind it
			}
		}
		go func() {
			l.Lock()
			pass(b.N / 2)
			l.Unlock()
			close(done)
		}()
		pass(b.N / 2)
		for queued(&l) == 0 {
			runtime.Gosched()
		}
		l.Unlock() // the other's last turn
		<-done
	})
	// W-Rrun: a writer's release admits two queued readers at once.
	b.Run("W-Rrun", func(b *testing.B) {
		var l FCFSRWMutex
		b.ReportAllocs()
		const readers = 2
		goes, outs := make(chan struct{}), make(chan struct{})
		for r := 0; r < readers; r++ {
			go func() {
				for range goes {
					l.RLock()
					l.RUnlock()
					outs <- struct{}{}
				}
			}()
		}
		for b.Loop() {
			l.Lock()
			for r := 0; r < readers; r++ {
				goes <- struct{}{}
			}
			for queued(&l) != readers {
				runtime.Gosched()
			}
			l.Unlock() // grants the run
			for r := 0; r < readers; r++ {
				<-outs
			}
		}
		close(goes)
	})
}

func BenchmarkVersionRead(b *testing.B) {
	var l VersionLock
	b.ReportAllocs()
	for b.Loop() {
		v, ok := l.ReadBegin()
		if !ok || !l.Validate(v) {
			b.Fatal("read restarted on an idle lock")
		}
	}
}
