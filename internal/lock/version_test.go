package lock

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cell is the "node" the seqlock stress protects: state changed in place
// whose fields are tied together (b must equal a*2 and gen must match
// the dirty section that wrote it). A torn or stale read shows up as a
// broken tie.
type cell struct {
	gen, a, b atomic.Uint64
}

func TestVersionLockParityAndMonotonicity(t *testing.T) {
	var l VersionLock
	if v := l.Version(); v != 0 {
		t.Fatalf("fresh version = %d", v)
	}
	last := uint64(0)
	for i := 0; i < 100; i++ {
		dirty := i%3 != 0
		l.LockV()
		if v := l.Version(); v != last+1 {
			t.Fatalf("version %d while a writer holds the lock, want %d", v, last+1)
		}
		want := last
		if dirty {
			l.UnlockV()
			want += 2
		} else {
			l.UnlockClean()
		}
		if v := l.Version(); v != want {
			t.Fatalf("version %d -> %d across a section (dirty=%v); want %d", last, v, dirty, want)
		}
		last = want
	}
}

func TestVersionLockReadBeginValidate(t *testing.T) {
	var l VersionLock
	v, ok := l.ReadBegin()
	if !ok || v != 0 {
		t.Fatalf("ReadBegin on idle lock = (%d, %v)", v, ok)
	}
	if !l.Validate(v) {
		t.Fatal("Validate failed with no writer")
	}
	l.LockV()
	if _, ok := l.ReadBegin(); ok {
		t.Fatal("ReadBegin reported stable while a writer holds the lock")
	}
	if l.Validate(v) {
		t.Fatal("Validate passed across a writer acquire")
	}
	l.UnlockV()
	if l.Validate(v) {
		t.Fatal("Validate passed across a completed write")
	}

	v, _ = l.ReadBegin()
	l.LockV()
	if l.Validate(v) {
		t.Fatal("Validate passed while a clean section was open")
	}
	l.UnlockClean()
	if !l.Validate(v) {
		t.Fatal("Validate failed across a section that changed nothing")
	}
}

// TestVersionLockSeqlockProperties is the randomized seqlock stress:
// writers change a cell in place under LockV, field by field with atomic
// stores, and leave through UnlockV — or change nothing and leave
// through UnlockClean — while checking the version is odd exactly inside
// their critical sections; latch-free readers run the ReadBegin/Validate
// protocol over atomic loads and check that every validated read is
// untorn (b == a*2) and stamped with exactly the generation their
// validated version implies, which holds only if the version advances
// by 2 per dirty section and by 0 per clean one, and that the versions
// a reader validates against never go backwards. Run under -race this
// also proves the in-place contract makes the reads well-defined.
func TestVersionLockSeqlockProperties(t *testing.T) {
	var (
		l     VersionLock
		c     cell
		dirty atomic.Uint64
		stop  atomic.Bool
	)

	writers := 4
	readers := runtime.GOMAXPROCS(0)
	if readers < 4 {
		readers = 4
	}
	var wg sync.WaitGroup
	var validated, restarted atomic.Int64

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				l.LockV()
				v := l.Version()
				if v&1 != 1 {
					t.Errorf("writer observed even version %d inside critical section", v)
				}
				if rng.Intn(3) == 0 {
					l.UnlockClean()
					continue
				}
				a := rng.Uint64() >> 1
				c.a.Store(a)
				if rng.Intn(4) == 0 {
					runtime.Gosched() // hold the cell torn for a while
				}
				c.b.Store(a * 2)
				c.gen.Store((v + 1) / 2)
				dirty.Add(1)
				l.UnlockV()
			}
		}(int64(w) + 1)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastV uint64
			for !stop.Load() {
				v, ok := l.ReadBegin()
				if !ok {
					restarted.Add(1)
					continue
				}
				if v < lastV {
					t.Errorf("version went backwards: %d after %d", v, lastV)
				}
				lastV = v
				a, b, gen := c.a.Load(), c.b.Load(), c.gen.Load()
				if !l.Validate(v) {
					restarted.Add(1)
					continue
				}
				validated.Add(1)
				if b != a*2 {
					t.Errorf("torn read: validated {a:%d b:%d}", a, b)
				}
				if gen != v/2 {
					t.Errorf("stale read: validated at version %d but generation %d", v, gen)
				}
			}
		}()
	}

	// At least 200 ms, and on until a reader has validated beside the
	// running writers: on a loaded machine the writers, which never
	// pause, can overtake every read started in a fixed window.
	time.Sleep(200 * time.Millisecond)
	for deadline := time.Now().Add(10 * time.Second); validated.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if validated.Load() == 0 {
		t.Fatal("no reader ever validated a read")
	}
	if restarted.Load() == 0 {
		t.Log("no read ever restarted (low contention this run); properties still hold")
	}
	if v, want := l.Version(), 2*dirty.Load(); v != want {
		t.Fatalf("final version %d after %d dirty sections, want %d", v, dirty.Load(), want)
	}
}

// TestVersionLockFallbackCompatibility checks the two disciplines
// compose: a reader holding the embedded R lock (the fallback path)
// excludes writers, so the version cannot change under it.
func TestVersionLockFallbackCompatibility(t *testing.T) {
	var l VersionLock
	l.RLock()
	v := l.Version()
	done := make(chan struct{})
	go func() {
		l.LockV()
		l.UnlockV()
		close(done)
	}()
	// The writer must be queued behind our R lock.
	time.Sleep(10 * time.Millisecond)
	if !l.Validate(v) {
		t.Fatal("version changed while an R lock was held")
	}
	l.RUnlock()
	<-done
	if l.Version() != v+2 {
		t.Fatalf("writer did not advance version: %d -> %d", v, l.Version())
	}
}
