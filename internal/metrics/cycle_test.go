package metrics

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"btreeperf/internal/lock"
)

// spin holds the processor for d: a hold time the lock cannot mistake for
// a wait.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// pause stays away for d without going to sleep. An idle runtime wakes
// its sleepers a millisecond-granular batch at a time, the goroutine that
// opens and closes the epochs among them, which puts a sleeping load's
// arrivals in step with the epoch edges; a served tree's arrivals come off
// the network, in step with nothing.
func pause(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
		runtime.Gosched()
	}
}

// Epochs for the tests below: as long as the served ones, so the edge
// bias is the served one, but closer together, so that a few hundred of
// them fit in a test.
const (
	testEpoch  = EpochLength
	testPeriod = 5 * time.Millisecond
)

// syntheticLoad runs the same fixed load on each of the locks until stop
// is closed: a reader holding 10µs and a writer holding 20µs, each going
// from lock to lock with a pause after every visit. Two goroutines in all,
// so that on two processors no holder waits for a processor.
func syntheticLoad(locks []*lock.FCFSRWMutex, stop <-chan struct{}, wg *sync.WaitGroup) {
	visit := func(write bool, hold time.Duration) {
		defer wg.Done()
		for {
			for _, l := range locks {
				select {
				case <-stop:
					return
				default:
				}
				if write {
					l.Lock()
					spin(hold)
					l.Unlock()
				} else {
					l.RLock()
					spin(hold)
					l.RUnlock()
				}
				pause(50 * time.Microsecond)
			}
		}
	}
	wg.Add(2)
	go visit(false, 10*time.Microsecond)
	go visit(true, 20*time.Microsecond)
}

// TestDutyCycleFidelity: the same load on two locks at the same time (so
// that whatever else the machine is doing falls on both), one heard by a
// probe that always listens, the other by one that listens in epochs; over a few hundred epochs the second must report the arrival
// rates, the mean holds and ρ_w of the first to within 10 %. What is left
// between them is sampling error (the epochs hear about a fifth of the
// visits) and the edge bias: a hold cut by the end of an epoch is charged
// up to the lock's last measured release, at most hold ÷ epoch length —
// 2 % here — of the integral.
func TestDutyCycleFidelity(t *testing.T) {
	// The comparison is statistical: a run that misses is repeated, and
	// only an estimator that is off, which misses every time, fails.
	var misses []string
	for attempt := 0; attempt < 3; attempt++ {
		if misses = dutyCycleFidelity(t); len(misses) == 0 {
			return
		}
		t.Logf("attempt %d: %v", attempt+1, misses)
	}
	t.Errorf("cycled probe off the always-listening one in every attempt, last: %v", misses)
}

func dutyCycleFidelity(t *testing.T) (misses []string) {
	always, cycled := NewTreeProbe(), NewTreeProbe()
	var la, lc lock.FCFSRWMutex
	la.SetProbe(always.Level(1))
	lc.SetProbe(cycled.Level(1))

	stop, cycleDone := make(chan struct{}), make(chan struct{})
	go func() { defer close(cycleDone); cycled.cycle(stop, testEpoch, testPeriod) }()
	for cycled.gate.Listening() {
		runtime.Gosched()
	}
	a0, c0 := always.Snapshot(), cycled.Snapshot()
	var wg sync.WaitGroup
	syntheticLoad([]*lock.FCFSRWMutex{&la, &lc}, stop, &wg)
	const epochs = 400
	time.Sleep(epochs * testPeriod)
	a1, c1 := always.Snapshot(), cycled.Snapshot()
	close(stop)
	wg.Wait()
	<-cycleDone

	if got := c1.Listened - c0.Listened; got < epochs*testEpoch/2 || got > (c1.At.Sub(c0.At))/2 {
		t.Fatalf("cycled probe listened %v of %v, want about a fifth", got, c1.At.Sub(c0.At))
	}
	ra, rc := Rates(a0, a1), Rates(c0, c1)
	if len(ra) != 1 || len(rc) != 1 {
		t.Fatalf("levels: always %d, cycled %d, want 1 and 1", len(ra), len(rc))
	}
	for _, q := range []struct {
		name     string
		ref, got float64
	}{
		{"lambda_r", ra[0].LambdaR, rc[0].LambdaR},
		{"lambda_w", ra[0].LambdaW, rc[0].LambdaW},
		{"mean hold r", ra[0].MeanHoldR, rc[0].MeanHoldR},
		{"mean hold w", ra[0].MeanHoldW, rc[0].MeanHoldW},
		{"rho_w", ra[0].RhoW, rc[0].RhoW},
	} {
		if q.ref <= 0 || math.IsNaN(q.got) {
			t.Fatalf("%s: always listening %v, cycled %v", q.name, q.ref, q.got)
		}
		if rel := q.got/q.ref - 1; math.Abs(rel) > 0.10 {
			misses = append(misses, fmt.Sprintf("%s: cycled %.4g vs always listening %.4g (%+.1f%%), want within 10%%",
				q.name, q.got, q.ref, 100*rel))
		}
	}
	return misses
}

// TestDutyCycleSaturation: a lock that is W-held nearly all the time with
// a queue behind it — the one busy period that never ends, where a
// sample of acquisitions says 0 or a multiple of the truth — reads as
// saturated through a probe that listens in epochs, because an epoch is a
// slice of time and every slice of a saturated lock is saturated.
func TestDutyCycleSaturation(t *testing.T) {
	p := NewTreeProbe()
	var l lock.FCFSRWMutex
	l.SetProbe(p.Level(1))
	stop, cycleDone := make(chan struct{}), make(chan struct{})
	go func() { defer close(cycleDone); p.cycle(stop, testEpoch, testPeriod) }()
	for p.gate.Listening() {
		runtime.Gosched()
	}
	s0 := p.Snapshot()
	var wg sync.WaitGroup
	var held time.Duration // by the writers' own clocks, under the lock
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.Lock()
				t0 := time.Now()
				spin(200 * time.Microsecond)
				held += time.Since(t0)
				l.Unlock()
			}
		}()
	}
	t0 := time.Now()
	time.Sleep(150 * testPeriod)
	s1 := p.Snapshot()
	wall := time.Since(t0)
	close(stop)
	wg.Wait()
	<-cycleDone

	if share := float64(held) / float64(wall); share < 0.90 {
		t.Skipf("the load held the lock only %.0f%% of the time: machine too busy to saturate it", 100*share)
	}
	r := Rates(s0, s1)
	if len(r) != 1 {
		t.Fatalf("got %d levels, want 1", len(r))
	}
	if r[0].RhoW < 0.85 {
		t.Errorf("saturated lock read rho_w = %.3f through the duty cycle, want >= 0.85", r[0].RhoW)
	}
	if r[0].MeanWaitW <= 0 || r[0].MeanHoldW < 150e-6 || r[0].MeanHoldW > 1e-3 {
		t.Errorf("saturated lock: mean W wait %v s, mean W hold %v s, want a wait and a hold of ~200µs", r[0].MeanWaitW, r[0].MeanHoldW)
	}
}

// TestRatesNoSampleBetweenEpochs: two snapshots inside one gap between
// epochs span no measured time. Whatever the locks did in between went
// unheard, and the window has no sample — nil, not a rate over zero time.
func TestRatesNoSampleBetweenEpochs(t *testing.T) {
	p := NewTreeProbe()
	var l lock.FCFSRWMutex
	l.SetProbe(p.Level(1))
	l.Lock() // heard: the probe listens until it is cycled
	l.Unlock()
	stop, cycleDone := make(chan struct{}), make(chan struct{})
	go func() { defer close(cycleDone); p.cycle(stop, testEpoch, time.Hour) }()
	for p.gate.Listening() {
		runtime.Gosched()
	}
	s0 := p.Snapshot()
	for i := 0; i < 1000; i++ {
		l.Lock()
		l.Unlock()
		l.RLock()
		l.RUnlock()
	}
	time.Sleep(2 * time.Millisecond)
	s1 := p.Snapshot()
	if s1.Listened != s0.Listened {
		t.Fatalf("listened %v inside a gap", s1.Listened-s0.Listened)
	}
	if got := Rates(s0, s1); got != nil {
		t.Fatalf("window with no measured time produced %+v", got)
	}
	if len(s1.Levels) != 1 || s1.Levels[0].WaitHistW.N() != 1 || s1.Levels[0].WaitHistR.N() != 0 {
		t.Fatalf("traffic in the gap was heard: %+v", s1.Levels)
	}
	close(stop)
	<-cycleDone
	if !p.gate.Listening() {
		t.Fatal("a probe whose cycle was stopped must listen again")
	}
}
