package metrics

import (
	"math"
	"math/rand/v2"
	"slices"
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
	if p50 < 1000-1000/16 || p50 > 1000+1000/16 {
		t.Errorf("p50 = %dns, want 1µs within 1/16", p50)
	}
	p999 := s.Quantile(0.999)
	if p999 < 1e6-1e6/16 || p999 > 1e6+1e6/16 {
		t.Errorf("p99.9 = %dns, want 1ms within 1/16", p999)
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
	// A window holding a zero, a negative and a saturating sample still
	// carries their exact sum.
	const win = 5 + 0 - 3 + 1<<40
	for _, v := range []int64{5, 0, -3, 1 << 40} {
		h.Observe(v)
	}
	d := h.Snapshot().Sub(s)
	if d.Sum != win || d.N() != 4 {
		t.Errorf("window sum=%d N=%d, want %d and 4", d.Sum, d.N(), int64(win))
	}
	m := s.Add(d)
	if m.Sum != total+win || m.N() != n+4 || m != h.Snapshot() {
		t.Errorf("merged %+v, want the live snapshot %+v", m, h.Snapshot())
	}
	if (HistSnapshot{}).Mean() != 0 {
		t.Error("an empty snapshot's mean must be 0")
	}
}

// TestHistZeroAndOverflow runs the bucket edges one sample at a time:
// zero and negative samples, every power of two, and every sub-bucket's
// lower edge, each ±1 ns, up to and past the 2^38 ns saturation. Each
// lands in the bucket whose edges hold it, is counted once with its exact
// sum, and is reported within 1/16 of its value; zero and below report 0,
// and 2^38 and above report 2^38.
func TestHistZeroAndOverflow(t *testing.T) {
	const sat = int64(1) << 38
	samples := []int64{0, -1, -5, math.MinInt64, 1 << 62, math.MaxInt64}
	for k := range 63 {
		samples = append(samples, 1<<k-1, 1<<k, 1<<k+1)
	}
	for i := range histBuckets {
		samples = append(samples, bucketLower(i)-1, bucketLower(i), bucketLower(i)+1)
	}
	for _, v := range samples {
		var h Hist
		h.Observe(v)
		s := h.Snapshot()
		i := bucketOf(v)
		if s.N() != 1 || s.Buckets[i] != 1 || s.Sum != v {
			t.Fatalf("%d: N=%d, bucket %d holds %d, sum %d", v, s.N(), i, s.Buckets[i], s.Sum)
		}
		if lo := bucketLower(i); v > 0 && (v < lo || i+1 < histBuckets && v >= bucketLower(i+1)) {
			t.Errorf("%d landed in bucket %d, whose lower edge is %d", v, i, lo)
		}
		got, want := s.Quantile(0), min(max(v, 0), sat)
		if got != s.Quantile(1) || float64(got-want) > float64(want)/16 || float64(want-got) > float64(want)/16 {
			t.Errorf("%d: quantiles %d…%d, want %d within 1/16", v, got, s.Quantile(1), want)
		}
	}
	if bucketOf(sat-1) != histBuckets-2 || bucketOf(sat) != histBuckets-1 {
		t.Errorf("2^38-1 and 2^38 land in buckets %d and %d, want the last two", bucketOf(sat-1), bucketOf(sat))
	}
}

// TestHistQuantileWidth holds every reported quantile of a seeded stream,
// log-uniform over 1 ns to 60 s plus a point mass at 250 µs, within 1/16
// of the exact nearest-rank quantile of the sorted stream.
func TestHistQuantileWidth(t *testing.T) {
	rnd := rand.New(rand.NewPCG(41, 1))
	var h Hist
	var sum int64
	stream := make([]int64, 120_000)
	for i := range stream {
		v := int64(250_000)
		if i%5 != 0 {
			v = int64(math.Exp(rnd.Float64() * math.Log(60e9)))
		}
		stream[i] = v
		sum += v
		h.Observe(v)
	}
	slices.Sort(stream)
	s := h.Snapshot()
	if s.N() != int64(len(stream)) || s.Sum != sum {
		t.Fatalf("N=%d sum=%d, want %d and %d", s.N(), s.Sum, len(stream), sum)
	}
	for _, q := range []float64{0, .5, .9, .99, .999, 1} {
		rank := max(int(math.Ceil(q*float64(len(stream)))), 1)
		exact, got := float64(stream[rank-1]), float64(s.Quantile(q))
		if math.Abs(got-exact) > exact/16 {
			t.Errorf("q=%v: %v ns, exact %v ns: off by %.1f%%", q, got, exact, 100*(got-exact)/exact)
		}
	}
}

// benchSamples are log-uniform over 1 ns to 1 s, so the benchmarks below
// visit the buckets a served tree's latencies do.
func benchSamples() []int64 {
	rnd := rand.New(rand.NewPCG(1, 2))
	v := make([]int64, 1024)
	for i := range v {
		v[i] = int64(math.Exp(rnd.Float64() * math.Log(1e9)))
	}
	return v
}

// BenchmarkHistObserve is one lock-wait sample into a shared Hist.
func BenchmarkHistObserve(b *testing.B) {
	var h Hist
	v := benchSamples()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		h.Observe(v[i&1023])
		i++
	}
}

// BenchmarkHistObserveN is one 32-op batch's service time.
func BenchmarkHistObserveN(b *testing.B) {
	var h Hist
	v := benchSamples()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		h.ObserveN(32*v[i&1023], 32)
		i++
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

func TestLevelClamping(t *testing.T) {
	p := NewTreeProbe()
	if p.Level(0) != p.Level(1) {
		t.Error("level 0 should clamp to 1")
	}
	if p.Level(MaxLevels+5) != p.Level(MaxLevels) {
		t.Error("deep levels should clamp to MaxLevels")
	}
}
