package core

import "btreeperf/internal/qmodel"

// AnalyzeMeasured solves a live tree's lock queues at the λ_r, λ_w, μ_r
// and μ_w its locks measured, levels[i-1] being level i's. The measured
// rates already hold what the algorithm's customers did, so every level
// is AnalyzeLink's station: Theorem 6's operating point (solve), Theorem
// 4's R-lock wait (mm1) and the W-lock wait settle derives from it. A
// level with no lock traffic, or with rates qmodel rejects (writers with
// no release), keeps its rates and is left unsolved, with zero waits.
// Algorithm and Lambda stay zero.
func AnalyzeMeasured(levels []qmodel.Input) *Result {
	an := newFrame(len(levels))
	for i, in := range levels {
		an.res.Levels[i] = LevelResult{Level: i + 1, LambdaR: in.LambdaR, LambdaW: in.LambdaW, MuR: in.MuR, MuW: in.MuW}
		if in.LambdaR+in.LambdaW == 0 {
			continue
		}
		if _, err := an.solve(i+1, in); err == nil {
			an.settle(i+1, an.mm1(i+1))
		}
	}
	return an.res
}

// RespAt composes the mean per-operation response time a measured result
// predicts at opRate operations per second: every class at every level
// is visited λ/opRate times per operation, for its wait and its mean hold,
//
//	Σ_i (λ_r(i)·(R(i) + 1/μ_r(i)) + λ_w(i)·(W(i) + 1/μ_w(i))) / opRate,
//
// where a class with no measured hold adds none. A non-positive opRate
// yields 0. The sum prices lock holds only, and is known to be wrong in
// three ways: OLC's latch-free reads take no lock, so they are invisible
// and a get is predicted free; service outside any hold (routing,
// tallies, the descent between holds) is not counted; and under lock
// coupling a parent's hold already runs through the child's wait, which
// is counted again at the child's level.
func (r *Result) RespAt(opRate float64) float64 {
	if opRate <= 0 {
		return 0
	}
	visits := func(lambda, wait, mu float64) float64 {
		if lambda == 0 {
			return 0
		}
		if mu > 0 {
			wait += 1 / mu
		}
		return lambda * wait
	}
	total := 0.0
	for _, l := range r.Levels {
		total += visits(l.LambdaR, l.R, l.MuR) + visits(l.LambdaW, l.W, l.MuW)
	}
	return total / opRate
}

// Capacity is λ_{ρ=.5} read off a result measured at opRate operations
// per second: the rate at which the first solved level's model ρ_w
// reaches target, and that level. Each level keeps its μ_r, μ_w and
// visits per operation (λ/opRate) while every λ scales with the rate.
// The rate is in opRate's units, to within 1e-4. With no writer traffic
// at a solvable level, or opRate ≤ 0, nothing binds and both are 0.
func (r *Result) Capacity(opRate, target float64) (rate float64, level int) {
	if opRate <= 0 {
		return 0, 0
	}
	// The last rate a level failed at is the boundary's upper end: that
	// level binds.
	rate, _ = solveBoundary(func(rate float64) (bool, error) {
		in, f := make([]qmodel.Input, len(r.Levels)), rate/opRate
		for i, l := range r.Levels {
			in[i] = qmodel.Input{LambdaR: l.LambdaR * f, LambdaW: l.LambdaW * f, MuR: l.MuR, MuW: l.MuW}
		}
		for _, l := range AnalyzeMeasured(in).Levels {
			if l.Solved && (!l.Stable || l.RhoW >= target) {
				level = l.Level
				return false, nil
			}
		}
		return true, nil
	}, 1e-4)
	if level == 0 {
		rate = 0 // solveBoundary's +Inf: nothing binds below 1e12
	}
	return rate, level
}
