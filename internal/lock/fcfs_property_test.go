package lock

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestFCFSPropertyGrantOrder is a randomized property test of strict FCFS
// granting under mixed reader/writer contention: for any two queued
// requests where at least one is a writer, the earlier arrival must be
// granted first. (Two readers may be granted as one batch, so their
// relative order is unconstrained.) In particular, a reader that queues
// behind a writer must never overtake it. Run it under -race: the CI race
// matrix includes this package.
//
// The order must hold on both paths of the lock and across the switches
// between them, so the test runs with a probe that always listens (every
// transition under the internal mutex), with none (the blocker takes the
// lock on the fast path and the queue forms behind it), and with a probe
// whose gate opens and closes at random between arrivals.
func TestFCFSPropertyGrantOrder(t *testing.T) {
	for _, mode := range []string{"listening", "no probe", "toggling"} {
		t.Run(mode, func(t *testing.T) { testFCFSGrantOrder(t, mode) })
	}
}

func testFCFSGrantOrder(t *testing.T, mode string) {
	const (
		seeds    = 25
		requests = 12
	)
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l FCFSRWMutex
		p := &countProbe{}
		toggle := func() {}
		switch mode {
		case "listening":
			l.SetProbe(p)
		case "toggling":
			p.gate = new(Gate)
			l.SetProbe(p)
			toggle = func() {
				if rng.Intn(2) == 0 {
					p.gate.Open()
				} else {
					p.gate.Close()
				}
			}
		}
		toggle()
		l.Lock() // blocker: every request below must queue

		classes := make([]bool, requests) // true = writer
		var grantMu sync.Mutex
		grants := make([]int, 0, requests)
		var wg sync.WaitGroup
		for i := 0; i < requests; i++ {
			write := rng.Intn(2) == 0
			classes[i] = write
			wg.Add(1)
			go func(i int, write bool) {
				defer wg.Done()
				if write {
					l.Lock()
				} else {
					l.RLock()
				}
				grantMu.Lock()
				grants = append(grants, i)
				grantMu.Unlock()
				if write {
					l.Unlock()
				} else {
					l.RUnlock()
				}
			}(i, write)
			// Arrival order is the queue order: wait until request i is
			// actually queued before launching request i+1.
			for queued(&l) != i+1 {
				runtime.Gosched()
			}
			toggle()
		}

		l.Unlock() // release the blocker; the queue drains in FCFS order
		wg.Wait()
		if mode != "listening" {
			if p.gate != nil {
				p.gate.Close()
			}
			l.RLock() // a touch outside any epoch hands the word back
			l.RUnlock()
			if s := l.state.Load(); s != 0 {
				t.Fatalf("seed %d: word %#x at quiescence, want 0", seed, s)
			}
		}

		if len(grants) != requests {
			t.Fatalf("seed %d: %d grants for %d requests", seed, len(grants), requests)
		}
		pos := make([]int, requests)
		for gpos, i := range grants {
			pos[i] = gpos
		}
		for i := 0; i < requests; i++ {
			for j := i + 1; j < requests; j++ {
				if (classes[i] || classes[j]) && pos[i] > pos[j] {
					t.Fatalf("seed %d: request %d (%s) arrived before %d (%s) but was granted later (order %v, classes %v)",
						seed, i, class(classes[i]), j, class(classes[j]), grants, classes)
				}
			}
		}
	}
}

func class(write bool) string {
	if write {
		return "writer"
	}
	return "reader"
}
