package stats

import (
	"math"
	"testing"
	"testing/quick"

	"btreeperf/internal/xrand"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.N() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d", w.N())
	}
	if !almost(w.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if !almost(w.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordSingleSample(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Variance() != 0 || w.CI95() != 0 {
		t.Errorf("single sample: mean=%v var=%v ci=%v", w.Mean(), w.Variance(), w.CI95())
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	err := quick.Check(func(seed uint64, split uint8) bool {
		src := xrand.New(seed)
		n := 50
		k := int(split) % n
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = src.Float64()*100 - 50
		}
		var all, a, b Welford
		for _, x := range xs {
			all.Add(x)
		}
		for _, x := range xs[:k] {
			a.Add(x)
		}
		for _, x := range xs[k:] {
			b.Add(x)
		}
		a.Merge(&b)
		return almost(a.Mean(), all.Mean(), 1e-9) &&
			almost(a.Variance(), all.Variance(), 1e-9) &&
			a.N() == all.N() && a.Min() == all.Min() && a.Max() == all.Max()
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 2 || a.Mean() != 2 {
		t.Errorf("merge empty changed accumulator: %v", a)
	}
	b.Merge(&a) // merging into empty copies
	if b.N() != 2 || b.Mean() != 2 {
		t.Errorf("merge into empty: %v", b)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	src := xrand.New(3)
	var small, large Welford
	for i := 0; i < 5; i++ {
		small.Add(src.Float64())
	}
	for i := 0; i < 5000; i++ {
		large.Add(src.Float64())
	}
	if large.CI95() >= small.CI95() {
		t.Errorf("CI did not shrink: small=%v large=%v", small.CI95(), large.CI95())
	}
}

func TestTCrit(t *testing.T) {
	if !almost(tCrit95(1), 12.706, 1e-9) {
		t.Error("df=1")
	}
	if !almost(tCrit95(30), 2.042, 1e-9) {
		t.Error("df=30")
	}
	if !almost(tCrit95(1000), 1.96, 1e-9) {
		t.Error("df=1000")
	}
	if !math.IsNaN(tCrit95(0)) {
		t.Error("df=0 should be NaN")
	}
}

func TestTimeWeightedConstant(t *testing.T) {
	var tw TimeWeighted
	tw.Set(10, 3)
	if got := tw.Average(20); !almost(got, 3, 1e-12) {
		t.Errorf("constant signal average %v, want 3", got)
	}
}

func TestTimeWeightedSteps(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 0)
	tw.Set(4, 1) // 0 for 4 units
	tw.Set(6, 0) // 1 for 2 units
	// average over [0, 10]: (0*4 + 1*2 + 0*4)/10 = 0.2
	if got := tw.Average(10); !almost(got, 0.2, 1e-12) {
		t.Errorf("step average %v, want 0.2", got)
	}
	// Average is idempotent / does not consume state.
	if got := tw.Average(10); !almost(got, 0.2, 1e-12) {
		t.Errorf("second call differs: %v", got)
	}
}

func TestTimeWeightedEmptyWindow(t *testing.T) {
	var tw TimeWeighted
	if tw.Average(5) != 0 {
		t.Error("unstarted average should be 0")
	}
	tw.Set(5, 7)
	if tw.Average(5) != 0 {
		t.Error("zero-length window should be 0")
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on time going backwards")
		}
	}()
	var tw TimeWeighted
	tw.Set(5, 1)
	tw.Set(4, 1)
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for _, x := range []float64{-1, 0, 0.5, 5, 9.999, 10, 100} {
		h.Add(x)
	}
	buckets, under, over := h.Counts()
	if under != 1 || over != 2 {
		t.Errorf("under=%d over=%d", under, over)
	}
	if buckets[0] != 2 || buckets[5] != 1 || buckets[9] != 1 {
		t.Errorf("buckets = %v", buckets)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i) / 10) // uniform 0..99.9
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		got := h.Quantile(q)
		if !almost(got, q*100, 2) {
			t.Errorf("Quantile(%v) = %v, want ~%v", q, got, q*100)
		}
	}
	if h.Quantile(-1) != 0 {
		t.Error("q<0 should clamp to lo")
	}
}

func TestHistogramShapePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 10, 0) },
		func() { NewHistogram(5, 5, 3) },
		func() { NewHistogram(6, 5, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid shape did not panic")
				}
			}()
			f()
		}()
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if !almost(s.Mean, 3, 1e-12) || s.N != 5 || s.Min != 1 || s.Max != 5 {
		t.Errorf("Summary = %+v", s)
	}
	if s.CI95 <= 0 {
		t.Error("CI95 should be positive for varied samples")
	}
	empty := Summarize(nil)
	if empty.Mean != 0 || empty.N != 0 {
		t.Errorf("empty Summary = %+v", empty)
	}
}

func TestWelfordAgainstExponential(t *testing.T) {
	src := xrand.New(99)
	var w Welford
	for i := 0; i < 100000; i++ {
		w.Add(src.Exp(2))
	}
	if !almost(w.Mean(), 2, 0.05) {
		t.Errorf("exp mean %v", w.Mean())
	}
	if !almost(w.Variance(), 4, 0.3) {
		t.Errorf("exp variance %v", w.Variance())
	}
}
