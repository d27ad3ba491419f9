package lock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// queued returns how many requests wait in l's queue.
func queued(l *FCFSRWMutex) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.waiters())
}

func TestExclusiveWriters(t *testing.T) {
	var l FCFSRWMutex
	var active, violations, total atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				l.Lock()
				if active.Add(1) != 1 {
					violations.Add(1)
				}
				active.Add(-1)
				total.Add(1)
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d mutual exclusion violations", violations.Load())
	}
	if total.Load() != 16*500 {
		t.Fatalf("completed %d", total.Load())
	}
}

func TestReadersShare(t *testing.T) {
	var l FCFSRWMutex
	var concurrent, peak atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			l.RLock()
			c := concurrent.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(20 * time.Millisecond)
			concurrent.Add(-1)
			l.RUnlock()
		}()
	}
	close(start)
	wg.Wait()
	if peak.Load() < 2 {
		t.Fatalf("readers never overlapped (peak %d)", peak.Load())
	}
}

func TestWriterExcludesReaders(t *testing.T) {
	var l FCFSRWMutex
	var inWrite atomic.Bool
	var violations atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			l.Lock()
			inWrite.Store(true)
			time.Sleep(time.Microsecond)
			inWrite.Store(false)
			l.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			l.RLock()
			if inWrite.Load() {
				violations.Add(1)
			}
			l.RUnlock()
		}
	}()
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d reader/writer overlaps", violations.Load())
	}
}

// TestFCFSOrder verifies that a reader arriving after a queued writer does
// not jump the queue.
func TestFCFSOrder(t *testing.T) {
	var l FCFSRWMutex
	l.RLock() // hold shared

	writerGranted := make(chan struct{})
	go func() {
		l.Lock() // queues behind the reader
		close(writerGranted)
		time.Sleep(10 * time.Millisecond)
		l.Unlock()
	}()
	// Wait until the writer is queued.
	for queued(&l) != 1 {
		time.Sleep(time.Millisecond)
	}

	readerGranted := make(chan struct{})
	go func() {
		l.RLock() // must wait behind the queued writer
		close(readerGranted)
		l.RUnlock()
	}()
	// Give the late reader a chance to (incorrectly) jump the queue.
	time.Sleep(5 * time.Millisecond)
	select {
	case <-readerGranted:
		t.Fatal("late reader jumped a queued writer")
	default:
	}

	l.RUnlock() // writer should now get the lock first
	<-writerGranted
	<-readerGranted
}

func TestReaderBatchAfterWriter(t *testing.T) {
	var l FCFSRWMutex
	l.Lock()
	var granted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.RLock()
			granted.Add(1)
			time.Sleep(5 * time.Millisecond)
			l.RUnlock()
		}()
	}
	for queued(&l) != 5 {
		time.Sleep(time.Millisecond)
	}
	l.Unlock()
	// All five readers should be granted as one batch.
	time.Sleep(2 * time.Millisecond)
	if g := granted.Load(); g != 5 {
		t.Fatalf("batch granted %d of 5 readers", g)
	}
	wg.Wait()
}

func TestUnlockValidation(t *testing.T) {
	var l FCFSRWMutex
	for _, f := range []func(){l.Unlock, l.RUnlock} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad unlock did not panic")
				}
			}()
			f()
		}()
	}
}

func TestMixedStress(t *testing.T) {
	var l FCFSRWMutex
	var data int64
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		write := i%3 == 0
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				if write {
					l.Lock()
					data++
					l.Unlock()
				} else {
					l.RLock()
					_ = data
					l.RUnlock()
				}
			}
		}()
	}
	wg.Wait()
	if data != 4*2000 {
		t.Fatalf("data = %d, want %d (lost updates)", data, 4*2000)
	}
}
