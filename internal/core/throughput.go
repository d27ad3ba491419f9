package core

import (
	"fmt"
	"math"
)

// Analyze dispatches to the per-algorithm analysis. Optimistic Descent is
// evaluated without recovery; use AnalyzeOD directly for §7 variants.
func Analyze(a Algorithm, m Model, w Workload) (*Result, error) {
	switch a {
	case NLC:
		return AnalyzeNLC(m, w)
	case OD:
		return AnalyzeOD(m, w, ODOptions{})
	case Link:
		return AnalyzeLink(m, w)
	case TwoPhase:
		return AnalyzeTwoPhase(m, w)
	case OLC:
		return AnalyzeOLC(m, w)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", a)
	}
}

// MaxThroughput returns the maximum sustainable arrival rate of algorithm
// a on model m: the supremum of λ for which every level's queue is stable
// (for Naive Lock-coupling this is Theorem 2's ρ_w(h) → 1 point). The
// value is found by exponential search followed by bisection, to within
// rtol relative accuracy.
func MaxThroughput(a Algorithm, m Model, mix Workload, rtol float64) (float64, error) {
	return maxStable(func(w Workload) (*Result, error) { return Analyze(a, m, w) }, mix, 1, rtol)
}

// MaxThroughputOD is MaxThroughput for Optimistic Descent under a §7
// recovery protocol.
func MaxThroughputOD(m Model, mix Workload, opts ODOptions, rtol float64) (float64, error) {
	return maxStable(func(w Workload) (*Result, error) { return AnalyzeOD(m, w, opts) }, mix, 1, rtol)
}

// EffectiveMaxThroughput returns the arrival rate at which the root's
// writer presence ρ_w(h) reaches target (§6 uses .5: beyond it, waiting
// grows disproportionately). This is the quantity the rules of thumb
// approximate.
func EffectiveMaxThroughput(a Algorithm, m Model, mix Workload, target, rtol float64) (float64, error) {
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("core: target ρ_w %v outside (0,1)", target)
	}
	return maxStable(func(w Workload) (*Result, error) { return Analyze(a, m, w) }, mix, target, rtol)
}

// maxStable finds the largest λ at which analyze reports a stable system
// whose root ρ_w is below target (a stable root always is below 1).
func maxStable(analyze func(Workload) (*Result, error), mix Workload, target, rtol float64) (float64, error) {
	if rtol <= 0 {
		rtol = 1e-4
	}
	return solveBoundary(func(lambda float64) (bool, error) {
		res, err := analyze(Workload{Lambda: lambda, Mix: mix.Mix})
		if err != nil {
			return false, err
		}
		return res.Stable && res.RootRhoW() < target, nil
	}, rtol)
}

// solveBoundary finds the largest λ for which ok(λ) holds, assuming ok is
// monotone (true below the boundary).
func solveBoundary(ok func(float64) (bool, error), rtol float64) (float64, error) {
	lo, hi := 0.0, 1e-3
	for {
		good, err := ok(hi)
		if err != nil {
			return 0, err
		}
		if !good {
			break
		}
		lo = hi
		hi *= 2
		if hi > 1e12 {
			return math.Inf(1), nil
		}
	}
	for hi-lo > rtol*hi {
		mid := (lo + hi) / 2
		good, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if good {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
