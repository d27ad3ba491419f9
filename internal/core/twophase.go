package core

import "btreeperf/internal/qmodel"

// AnalyzeTwoPhase evaluates strict Two-Phase Locking on the B-tree — the
// extension the paper defers to its full version ("Results that will
// appear in the full version of this paper include analyses of additional
// concurrent B-tree algorithms, including Two-Phase locking").
//
// Under 2PL an operation never releases a lock before it finishes:
// searches hold R locks on the entire root-to-leaf path until the leaf
// access completes, and updates hold W locks on the whole path until the
// leaf is modified (and any restructuring done). This is Naive
// Lock-coupling without the release-ancestors-when-safe optimization, so
// it lower-bounds every protocol in the paper.
//
// The model: the level-i hold time is the full remaining descent below i
// plus the leaf work —
//
//	T(o,i) = Σ_{k<i} (Se(k)-ish work + wait at k) + leaf work
//
// computed leaf-up exactly like Theorem 1, except no term is ever dropped
// when a child is safe.
func AnalyzeTwoPhase(m Model, w Workload) (*Result, error) {
	an, err := newAnalysis(m, w)
	if err != nil {
		return nil, err
	}
	an.res.Algorithm = TwoPhase
	mix, h := an.mix, an.h
	wi, _ := updateShares(mix.QI, mix.QD)
	splitWork := an.splitWork(0)

	// Hold times: the level-i lock is held for the node search plus the
	// entire remainder of the operation (wait + hold at i-1).
	tS := make([]float64, h+1)
	tU := make([]float64, h+1) // update (insert/delete weighted) hold
	for i := 1; i <= h; i++ {
		if i == 1 {
			tS[1] = an.se(1)
			tU[1] = an.m() + splitWork*wi // restructuring done under the held path
		} else {
			tS[i] = an.se(i) + an.rWait[i-1] + tS[i-1]
			tU[i] = an.se(i) + an.wWait[i-1] + tU[i-1]
		}
		sol, err := an.solve(i, qmodel.Input{
			LambdaR: mix.QS * an.lam[i],
			LambdaW: (mix.QI + mix.QD) * an.lam[i],
			MuR:     1 / tS[i],
			MuW:     1 / tU[i],
		})
		if err != nil {
			return nil, err
		}
		if !sol.Stable {
			return an.saturate(i), nil
		}
		an.settle(i, an.mm1(i))
	}

	an.res.RespSearch = an.searchResp(0, 1)
	path := 0.0 // W-locked descent above the leaf
	for i := 2; i <= h; i++ {
		path += an.se(i) + an.wWait[i]
	}
	an.res.RespDelete = path + (an.m() + an.wWait[1])
	an.res.RespInsert = path + (an.m() + an.wWait[1] + splitWork)
	return an.res, nil
}
