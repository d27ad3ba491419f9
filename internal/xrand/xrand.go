// Package xrand provides the random variates used throughout btreeperf:
// exponential service times, Poisson arrival gaps, skewed key indices,
// and reproducible, splittable random sources.
//
// Every stochastic component in the repository draws from an xrand.Source
// seeded explicitly, so simulator runs are deterministic given a seed.
package xrand

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Source is a seeded random source with the variate generators needed by
// the simulator and workload generators. It is NOT safe for concurrent use;
// use Split to derive independent sources for concurrent consumers.
type Source struct {
	rng  *rand.Rand
	seed uint64
}

// New returns a Source seeded with seed. Two Sources with the same seed
// produce identical streams.
func New(seed uint64) *Source {
	return &Source{
		rng:  rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		seed: seed,
	}
}

// Split derives a new, statistically independent Source. The derived seed
// mixes the parent seed with the supplied stream label so that the same
// (seed, label) pair always yields the same stream.
func (s *Source) Split(label uint64) *Source {
	return New(mix(s.seed, label))
}

// mix is SplitMix64-style avalanche mixing of two 64-bit words.
func mix(a, b uint64) uint64 {
	z := a + 0x9e3779b97f4a7c15 + b*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Float64 returns a uniform variate in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Int63n returns a uniform variate in [0, n). It panics if n <= 0.
func (s *Source) Int63n(n int64) int64 { return s.rng.Int64N(n) }

// IntN returns a uniform variate in [0, n). It panics if n <= 0.
func (s *Source) IntN(n int) int { return s.rng.IntN(n) }

// Exp returns an exponential variate with the given mean.
// Exp(0) returns 0 so that zero-cost service times are representable.
func (s *Source) Exp(mean float64) float64 {
	if mean < 0 {
		panic(fmt.Sprintf("xrand: negative exponential mean %v", mean))
	}
	if mean == 0 {
		return 0
	}
	// Inverse transform; 1-U in (0,1] avoids log(0).
	return -mean * math.Log(1-s.rng.Float64())
}

// ExpRate returns an exponential variate with the given rate (1/mean).
func (s *Source) ExpRate(rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("xrand: non-positive exponential rate %v", rate))
	}
	return s.Exp(1 / rate)
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rng.Float64() < p
}

// Zipf returns an index in [0, n) drawn with probability approximately
// proportional to 1/(i+1)^skew, by inverting the continuous analogue of
// the Zipf CDF — one uniform draw, O(1), no table. skew <= 0 is uniform;
// larger skew concentrates mass on the low indices (skew = 1 is the
// classic Zipf's law).
func (s *Source) Zipf(n int, skew float64) int {
	if n <= 0 {
		panic(fmt.Sprintf("xrand: Zipf n = %d", n))
	}
	if skew <= 0 {
		return s.rng.IntN(n)
	}
	u := s.rng.Float64()
	var x float64
	if math.Abs(skew-1) < 1e-9 {
		// F(x) = ln x / ln(n+1) over [1, n+1).
		x = math.Exp(u * math.Log(float64(n)+1))
	} else {
		// F(x) = (x^(1−s) − 1)/((n+1)^(1−s) − 1) over [1, n+1).
		e := 1 - skew
		x = math.Pow(1+u*(math.Pow(float64(n)+1, e)-1), 1/e)
	}
	i := int(x) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// SelfSimilar returns an index in [0, n) drawn from the self-similar
// ("80/20") distribution: a (1−hot) fraction of draws lands in the first
// hot·n indices, recursively at every scale (Gray et al.). hot must be in
// (0, 0.5]; hot = 0.2 is the classic 80/20 rule, hot = 0.5 is uniform.
func (s *Source) SelfSimilar(n int, hot float64) int {
	if n <= 0 {
		panic(fmt.Sprintf("xrand: SelfSimilar n = %d", n))
	}
	if hot <= 0 || hot > 0.5 {
		panic(fmt.Sprintf("xrand: SelfSimilar hot = %v outside (0, 0.5]", hot))
	}
	// CDF F(x) = x^θ with θ = ln(1−hot)/ln(hot); invert by U^(1/θ).
	theta := math.Log(1-hot) / math.Log(hot)
	i := int(float64(n) * math.Pow(s.rng.Float64(), 1/theta))
	if i >= n {
		i = n - 1
	}
	return i
}
