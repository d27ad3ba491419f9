package core

import (
	"btreeperf/internal/lock"
	"btreeperf/internal/qmodel"
)

// AnalyzeOLC evaluates optimistic lock-coupling, the fourth algorithm.
//
// Writers behave exactly as in the Link-type analysis: W locks one node
// at a time, splits propagate upward, so λ_w(i) and the W service times
// come from linkWriters. Readers descend latch-free, sampling each node's
// version word and re-validating after the read; the lock queues
// therefore see almost no reader traffic, and what the framework must
// price instead is the restart process:
//
//   - a validation of a level-i node fails if the node is write-locked
//     when the read begins (probability u_i = λ_w(i)/μ_w(i), the
//     writer utilization of the representative node) or a writer bumps
//     the version during the Se(i) read window (Poisson writer
//     arrivals: the no-conflict window survives with probability
//     1/(1 + λ_w(i)·Se(i))), giving
//
//     p_i = 1 − (1 − u_i)/(1 + λ_w(i)·Se(i));
//
//   - a whole descent restarts with probability
//     P = 1 − ∏(1 − p_i) — over levels 1..h for searches (the leaf is
//     validated too) and 2..h for updates (the leaf is W-locked, not
//     validated);
//
//   - retries are correlated, not independent: a failed attempt
//     re-walks to the same node at memory speed (a few time units)
//     while the conflicting writer's critical section (mean 1/μ_w,
//     exponential and memoryless) is usually still open, so a retry
//     fails again with probability
//
//     q = persist + (1 − persist)·P,
//     persist = Σ_ℓ w_ℓ · (1/μ_w(ℓ)) / (1/μ_w(ℓ) + t_r(ℓ)),
//
//     where w_ℓ is the probability the first failure was at level ℓ
//     and t_r(ℓ) the warm re-descent time back to it;
//
//   - attempts truncate at K = lock.OLCMaxAttempts: the expected number of
//     failed descents is E[N] = P·(1 + q + … + q^{K−1}), and with
//     probability F = P·q^{K−1} the operation falls back to the locked
//     Link-type path, whose R locks queue behind writers in the
//     ordinary FCFS way. Only this fallback fraction contributes
//     reader arrivals to the level queues.
//
// A failed descent aborts at its first failed validation, so it is
// charged only the node accesses down to (and including) the failing
// level — at memory speed: the path it re-walks was faulted into the
// buffer by the preceding attempt, and an immediate re-access hits. The
// cold accesses are charged once, on the final (successful or fallback)
// pass at the full Se(i).
func AnalyzeOLC(m Model, w Workload) (*Result, error) {
	an, err := newAnalysis(m, w)
	if err != nil {
		return nil, err
	}
	res, c, mix, h, lam := an.res, an.c, an.mix, an.h, an.lam
	res.Algorithm = OLC
	res.ReadConflict = make([]float64, h+1)

	// Writer rates and service times per level, and the single-attempt
	// validation-failure probabilities they induce. These do not depend
	// on the reader traffic, so no fixed point is needed: conflicts
	// first, then one queue solve with the fallback readers.
	lw := make([]float64, h+1)
	muW := make([]float64, h+1)
	for i := 1; i <= h; i++ {
		lw[i], muW[i] = an.linkWriters(i)
		u := 0.0
		if muW[i] > 0 {
			u = lw[i] / muW[i]
		}
		if u >= 1 {
			return an.saturate(i), nil
		}
		res.ReadConflict[i] = 1 - (1-u)/(1+lw[i]*an.se(i))
	}

	// Descent restart probabilities for the two descent classes, and the
	// correlated retry-failure probabilities: given a failure, the retry
	// returns to the failing node after the warm re-descent time t_r,
	// and the conflicting writer's (memoryless) critical section is
	// still open with probability (1/μ_w)/(1/μ_w + t_r).
	okSearch, okUpdate := 1.0, 1.0
	for i := 1; i <= h; i++ {
		okSearch *= 1 - res.ReadConflict[i]
		if i >= 2 {
			okUpdate *= 1 - res.ReadConflict[i]
		}
	}
	pS, pU := 1-okSearch, 1-okUpdate
	qS := retryFailProb(res.ReadConflict, muW, c, 1, h, pS)
	qU := retryFailProb(res.ReadConflict, muW, c, 2, h, pU)
	fbS := pS * powK(qS, lock.OLCMaxAttempts-1)
	fbU := pU * powK(qU, lock.OLCMaxAttempts-1)
	qu := mix.QI + mix.QD
	res.RestartProb = mix.QS*pS + qu*pU
	res.FallbackProb = mix.QS*fbS + qu*fbU
	res.RestartsPerOp = mix.QS*failedAttempts(pS, qS, lock.OLCMaxAttempts) +
		qu*failedAttempts(pU, qU, lock.OLCMaxAttempts)

	// Solve the level queues. Reader arrivals are the fallback fraction
	// only: a fallback search R-locks one node per level; a fallback
	// update R-locks the internal levels (its leaf lock is the W lock
	// already counted in λ_w).
	for i := 1; i <= h; i++ {
		lr := (fbS*mix.QS + fbU*qu) * lam[i]
		if i == 1 {
			lr = fbS * mix.QS * lam[1]
		}
		if _, err := an.solve(i, qmodel.Input{LambdaR: lr, LambdaW: lw[i], MuR: 1 / an.se(i), MuW: muW[i]}); err != nil {
			return nil, err
		}
		an.settle(i, an.mm1(i))
	}

	// Response times. A latch-free descent pays the node accesses but no
	// lock waits; a failed attempt aborts at its first failed validation
	// and repays only the prefix walked; the fallback fraction pays the
	// locked Link-type descent.
	searchPath := 0.0
	for i := 1; i <= h; i++ {
		searchPath += an.se(i)
	}
	failS := failedDescentCost(res.ReadConflict, c, 1, h)
	res.RespSearch = failedAttempts(pS, qS, lock.OLCMaxAttempts)*failS +
		(1-fbS)*searchPath + fbS*an.searchResp(0, 1)

	descPath := 0.0
	for i := 2; i <= h; i++ {
		descPath += an.se(i)
	}
	failU := failedDescentCost(res.ReadConflict, c, 2, h)
	update := failedAttempts(pU, qU, lock.OLCMaxAttempts)*failU +
		(1-fbU)*descPath + fbU*an.searchResp(0, 2) +
		an.m() + an.wWait[1]
	res.RespInsert = an.linkInsertResp(update)
	res.RespDelete = update
	return res, nil
}

// failedDescentCost is the expected node-access cost of one failed
// latch-free descent over levels lo..h (conditioned on it failing): the
// descent walks h, h−1, …, lo, aborts at the first level whose
// validation fails, and pays the warm in-memory access time per visited
// node — its path is buffer-resident from the attempt that preceded it.
func failedDescentCost(p []float64, c CostModel, lo, h int) float64 {
	warm := c.SearchMem * c.Dilation
	var total, pFail, prefix float64
	okAbove := 1.0
	for i := h; i >= lo; i-- {
		prefix += warm
		w := okAbove * p[i] // first failure at level i
		total += w * prefix
		pFail += w
		okAbove *= 1 - p[i]
	}
	if pFail == 0 {
		return 0
	}
	return total / pFail
}

// retryFailProb is the probability a retry descent fails again given the
// previous attempt failed: the conflicting writer — at the level the
// failure happened, weighted by first-failure likelihood — is still in
// its critical section when the warm re-descent returns (exponential
// residual hold 1/μ_w vs. exponential re-walk time t_r), plus a fresh
// independent conflict.
func retryFailProb(p []float64, muW []float64, c CostModel, lo, h int, pClass float64) float64 {
	if pClass <= 0 {
		return 0
	}
	warm := c.SearchMem * c.Dilation
	var persist, pFail float64
	okAbove := 1.0
	for i := h; i >= lo; i-- {
		w := okAbove * p[i] // first failure at level i
		if muW[i] > 0 {
			hold := 1 / muW[i]
			tr := warm * float64(h-i+1)
			persist += w * hold / (hold + tr)
		}
		pFail += w
		okAbove *= 1 - p[i]
	}
	if pFail > 0 {
		persist /= pFail
	}
	q := persist + (1-persist)*pClass
	if q > 1 {
		q = 1
	}
	return q
}

// failedAttempts is the expected number of failed descents when the
// first fails with probability p, each retry fails with probability q,
// and attempts truncate at k: p·(1 + q + … + q^{k−1}).
func failedAttempts(p, q float64, k int) float64 {
	sum, qj := 0.0, 1.0
	for j := 0; j < k; j++ {
		sum += qj
		qj *= q
	}
	return p * sum
}

// powK is q^k without the math.Pow edge cases for q in [0, 1].
func powK(q float64, k int) float64 {
	r := 1.0
	for j := 0; j < k; j++ {
		r *= q
	}
	return r
}
