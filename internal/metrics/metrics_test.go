package metrics

import (
	"sync"
	"testing"
	"time"

	"btreeperf/internal/lock"
)

func TestHistQuantile(t *testing.T) {
	var h Hist
	// 100 samples at ~1µs, 10 at ~1ms: p50 in the µs range, p99+ in ms.
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1_000_000)
	}
	s := h.Snapshot()
	if s.N() != 110 {
		t.Fatalf("N = %d", s.N())
	}
	p50 := s.Quantile(0.5)
	if p50 < 512 || p50 > 2048 {
		t.Errorf("p50 = %dns, want ~1µs", p50)
	}
	p999 := s.Quantile(0.999)
	if p999 < 512*1024 || p999 > 2*1024*1024 {
		t.Errorf("p99.9 = %dns, want ~1ms", p999)
	}
	// Window subtraction: a fresh window sees only the new samples.
	h.Observe(1 << 20)
	d := h.Snapshot().Sub(s)
	if d.N() != 1 {
		t.Errorf("window N = %d, want 1", d.N())
	}
}

// TestHistSumIsExact: a batch of n samples whose total does not divide
// by n lands in one bucket, yet the sum keeps every nanosecond, so the
// mean is the exact total over n; window and merge carry the sum along.
func TestHistSumIsExact(t *testing.T) {
	var h Hist
	const total, n = 1_000_003, 7 // total % n != 0
	h.ObserveN(total, n)
	s := h.Snapshot()
	if s.Sum != total || s.N() != n {
		t.Fatalf("sum=%d N=%d, want %d and %d", s.Sum, s.N(), total, n)
	}
	if got, want := s.Mean(), float64(total)/float64(n); got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	if got, want := s.Buckets[bucketOf(total/n)], int64(n); got != want {
		t.Errorf("bucket of total/n holds %d, want %d", got, want)
	}
	h.Observe(5)
	d := h.Snapshot().Sub(s)
	if d.Sum != 5 || d.N() != 1 {
		t.Errorf("window sum=%d N=%d, want 5 and 1", d.Sum, d.N())
	}
	m := s.Add(d)
	if m.Sum != total+5 || m.N() != n+1 || m != h.Snapshot() {
		t.Errorf("merged %+v, want the live snapshot %+v", m, h.Snapshot())
	}
	if (HistSnapshot{}).Mean() != 0 {
		t.Error("an empty snapshot's mean must be 0")
	}
}

func TestHistZeroAndOverflow(t *testing.T) {
	var h Hist
	h.Observe(0)
	h.Observe(-5)
	h.Observe(1 << 62) // beyond the last bucket: saturates
	s := h.Snapshot()
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Quantile(0) != 0 {
		t.Errorf("q0 = %d, want 0", s.Quantile(0))
	}
}

// TestLevelStatsAsLockProbe wires a LevelStats to a real FCFSRWMutex and
// checks that measured rates come out in the right ballpark.
func TestLevelStatsAsLockProbe(t *testing.T) {
	probe := NewTreeProbe()
	var l lock.FCFSRWMutex
	l.SetProbe(probe.Level(1))

	s0 := probe.Snapshot()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		write := i%2 == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if write {
					l.Lock()
					time.Sleep(50 * time.Microsecond)
					l.Unlock()
				} else {
					l.RLock()
					time.Sleep(50 * time.Microsecond)
					l.RUnlock()
				}
			}
		}()
	}
	wg.Wait()
	s1 := probe.Snapshot()

	rates := Rates(s0, s1)
	if len(rates) != 1 {
		t.Fatalf("got %d levels, want 1", len(rates))
	}
	r := rates[0]
	if r.Level != 1 {
		t.Fatalf("level %d", r.Level)
	}
	if r.LambdaR <= 0 || r.LambdaW <= 0 {
		t.Fatalf("arrival rates %+v", r)
	}
	// Mean writer hold is the sleep plus overhead: between 50µs and 5ms.
	if r.MeanHoldW < 50e-6 || r.MeanHoldW > 5e-3 {
		t.Errorf("mean writer hold %v s, want ~50µs", r.MeanHoldW)
	}
	if r.MeanHoldR < 50e-6 || r.MeanHoldR > 5e-3 {
		t.Errorf("mean reader hold %v s, want ~50µs", r.MeanHoldR)
	}
	// Writers are present much of the time under this contention.
	if r.RhoW <= 0 || r.RhoW > 1 {
		t.Errorf("rho_w = %v, want in (0, 1]", r.RhoW)
	}
	acquired := r.WaitHistR.N() + r.WaitHistW.N()
	released := s1.Levels[0].ReleasedR + s1.Levels[0].ReleasedW
	if acquired != 800 || released != 800 {
		t.Errorf("window acquired=%d released=%d, want 800/800", acquired, released)
	}

	mp := Evaluate(r)
	if !mp.Evaluated {
		t.Fatal("model did not evaluate")
	}
	if mp.Sol.RhoW < 0 || mp.Sol.RhoW > 1 {
		t.Errorf("model rho_w = %v", mp.Sol.RhoW)
	}
}

func TestRatesEmptyWindow(t *testing.T) {
	probe := NewTreeProbe()
	s := probe.Snapshot()
	if got := Rates(s, s); got != nil {
		t.Fatalf("zero-width window produced %v", got)
	}
	if len(s.Levels) != 0 {
		t.Fatalf("idle probe has %d active levels", len(s.Levels))
	}
}

func TestEvaluateLightVsHeavy(t *testing.T) {
	light := LevelRates{Level: 3, LambdaR: 100, LambdaW: 10, MuR: 1e5, MuW: 1e5}
	mp := Evaluate(light)
	if !mp.Evaluated || !mp.Sol.Stable {
		t.Fatalf("light load should be stable: %+v", mp)
	}
	if mp.Sol.RhoW >= 0.5 {
		t.Errorf("light load rho_w = %v, want < .5", mp.Sol.RhoW)
	}
	heavy := LevelRates{Level: 3, LambdaR: 9e4, LambdaW: 5e4, MuR: 1e5, MuW: 1e5}
	mh := Evaluate(heavy)
	if !mh.Evaluated {
		t.Fatal("heavy load did not evaluate")
	}
	if mh.Sol.RhoW < 0.5 {
		t.Errorf("overloaded queue rho_w = %v, want >= .5", mh.Sol.RhoW)
	}
	if mh.Sol.RhoW <= mp.Sol.RhoW {
		t.Errorf("rho_w not monotone: heavy %v <= light %v", mh.Sol.RhoW, mp.Sol.RhoW)
	}
}

func TestPredictedResponse(t *testing.T) {
	// Two levels, ops visit each once at 1000 ops/s; holds of 1µs and 2µs
	// with no waits predict ~3µs response.
	points := []ModelPoint{
		{LevelRates: LevelRates{Level: 1, LambdaR: 800, LambdaW: 200, MeanHoldR: 1e-6, MeanHoldW: 1e-6}},
		{LevelRates: LevelRates{Level: 2, LambdaR: 1000, MeanHoldR: 2e-6}},
	}
	got := PredictedResponse(points, 1000)
	if got < 2.5e-6 || got > 3.5e-6 {
		t.Fatalf("predicted response %v s, want ~3µs", got)
	}
	if PredictedResponse(points, 0) != 0 {
		t.Fatal("zero op rate should predict 0")
	}
}

func TestLevelClamping(t *testing.T) {
	p := NewTreeProbe()
	if p.Level(0) != p.Level(1) {
		t.Error("level 0 should clamp to 1")
	}
	if p.Level(MaxLevels+5) != p.Level(MaxLevels) {
		t.Error("deep levels should clamp to MaxLevels")
	}
}
