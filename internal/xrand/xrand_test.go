package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	c1again := New(7).Split(1)
	for i := 0; i < 100; i++ {
		v1, v2, v1a := c1.Float64(), c2.Float64(), c1again.Float64()
		if v1 != v1a {
			t.Fatalf("Split(1) not reproducible at draw %d", i)
		}
		if v1 == v2 {
			t.Fatalf("Split(1) and Split(2) collided at draw %d", i)
		}
	}
}

func TestExpMeanAndVariance(t *testing.T) {
	const n = 200000
	src := New(11)
	mean := 3.5
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := src.Exp(mean)
		if x < 0 {
			t.Fatalf("negative exponential sample %v", x)
		}
		sum += x
		sumSq += x * x
	}
	m := sum / n
	v := sumSq/n - m*m
	if math.Abs(m-mean) > 0.05*mean {
		t.Errorf("sample mean %v, want ~%v", m, mean)
	}
	if math.Abs(v-mean*mean) > 0.1*mean*mean {
		t.Errorf("sample variance %v, want ~%v", v, mean*mean)
	}
}

func TestExpZeroMean(t *testing.T) {
	src := New(1)
	for i := 0; i < 10; i++ {
		if got := src.Exp(0); got != 0 {
			t.Fatalf("Exp(0) = %v, want 0", got)
		}
	}
}

func TestExpRate(t *testing.T) {
	src := New(13)
	const n = 100000
	rate := 4.0
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += src.ExpRate(rate)
	}
	m := sum / n
	if math.Abs(m-1/rate) > 0.02 {
		t.Errorf("ExpRate(4) mean %v, want ~0.25", m)
	}
}

func TestExpNegativeMeanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(-1) did not panic")
		}
	}()
	New(1).Exp(-1)
}

func TestBernoulli(t *testing.T) {
	src := New(23)
	if src.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !src.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if src.Bernoulli(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("Bernoulli(0.25) hit rate %v", frac)
	}
}

func TestFloat64Range(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		src := New(seed)
		for i := 0; i < 100; i++ {
			f := src.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestMixAvalanche(t *testing.T) {
	// Neighboring labels must give well-separated seeds.
	base := mix(123, 0)
	for l := uint64(1); l < 100; l++ {
		if mix(123, l) == base {
			t.Fatalf("mix collision at label %d", l)
		}
	}
}

func TestSelfSimilar8020(t *testing.T) {
	src := New(41)
	const n = 10000
	const draws = 200000
	inHot := 0
	for i := 0; i < draws; i++ {
		idx := src.SelfSimilar(n, 0.2)
		if idx < 0 || idx >= n {
			t.Fatalf("index %d out of range", idx)
		}
		if idx < n/5 {
			inHot++
		}
	}
	frac := float64(inHot) / draws
	if math.Abs(frac-0.8) > 0.02 {
		t.Fatalf("hot-20%% fraction %v, want ~0.8", frac)
	}
}

func TestSelfSimilarHalfIsUniform(t *testing.T) {
	src := New(43)
	const n = 1000
	const draws = 200000
	firstHalf := 0
	for i := 0; i < draws; i++ {
		if src.SelfSimilar(n, 0.5) < n/2 {
			firstHalf++
		}
	}
	frac := float64(firstHalf) / draws
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("hot=0.5 first-half fraction %v, want ~0.5", frac)
	}
}

func TestSelfSimilarValidation(t *testing.T) {
	src := New(1)
	for _, f := range []func(){
		func() { src.SelfSimilar(0, 0.2) },
		func() { src.SelfSimilar(10, 0) },
		func() { src.SelfSimilar(10, 0.9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid SelfSimilar did not panic")
				}
			}()
			f()
		}()
	}
}
