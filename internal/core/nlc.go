package core

import "btreeperf/internal/qmodel"

// AnalyzeNLC evaluates the Naive Lock-coupling algorithm (§5, Theorems
// 1–5). Search operations are R customers, inserts and deletes W
// customers; lock coupling makes the level-i hold times depend on the
// level-(i−1) waiting times, so the levels are solved leaf-up.
//
// The returned Result is meaningful even when Stable is false: saturated
// levels report ρ_w = 1 and infinite waits.
func AnalyzeNLC(m Model, w Workload) (*Result, error) {
	an, err := newAnalysis(m, w)
	if err != nil {
		return nil, err
	}
	an.res.Algorithm = NLC
	mix, h := an.mix, an.h

	// Shares of insert and delete among W customers.
	wi, wd := updateShares(mix.QI, mix.QD)
	tI := make([]float64, h+1)
	tD := make([]float64, h+1)

	for i := 1; i <= h; i++ {
		tI[i], tD[i] = an.coupledHolds(i, tI[i-1], tD[i-1], 0)
		// A search holds level i while it reads the node and waits for
		// the child's R lock (nothing below the leaf: R(0) = 0).
		tS := an.se(i) + an.rWait[i-1]
		sol, err := an.solve(i, qmodel.Input{
			LambdaR: mix.QS * an.lam[i],
			LambdaW: (mix.QI + mix.QD) * an.lam[i],
			MuR:     1 / tS,
			MuW:     1 / (wi*tI[i] + wd*tD[i]),
		})
		if err != nil {
			return nil, err
		}
		if !sol.Stable {
			return an.saturate(i), nil
		}
		if i == 1 {
			an.settle(1, an.mm1(1))
		} else {
			an.settle(i, an.coupledWait(i, wi, tI[i-1], 0))
		}
	}

	an.res.RespSearch = an.searchResp(0, 1)
	an.res.RespInsert, an.res.RespDelete = an.coupledUpdateResp()
	return an.res, nil
}
