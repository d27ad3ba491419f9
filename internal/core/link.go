package core

import "btreeperf/internal/qmodel"

// AnalyzeLink evaluates the Link-type (Lehman–Yao) algorithm (§5.1).
// Operations hold at most one lock at a time, so the level queues are
// independent and exponential-service (Theorem 4 / aggregate-customer
// M/M/1) throughout:
//
//   - every operation R-locks one node per level on the way down, so the
//     reader arrival rate at level i is λ divided by the fanouts above it;
//   - updates W-lock the leaf; the only W locks above the leaf come from
//     splits propagating up: λ_w(i) = q_i·λ·∏_{k<i}Pr[F(k)] scaled to the
//     level's node population;
//   - R service is the node search; W service is the node modification
//     plus — with the probability the node itself is full — a half-split.
//
// Link crossings are rare (Figure 9) and are ignored by the analysis,
// exactly as in the paper.
func AnalyzeLink(m Model, w Workload) (*Result, error) {
	an, err := newAnalysis(m, w)
	if err != nil {
		return nil, err
	}
	an.res.Algorithm = Link
	for i := 1; i <= an.h; i++ {
		lr := an.lam[i]
		if i == 1 {
			lr = an.mix.QS * an.lam[1]
		}
		lw, muW := an.linkWriters(i)
		if _, err := an.solve(i, qmodel.Input{LambdaR: lr, LambdaW: lw, MuR: 1 / an.se(i), MuW: muW}); err != nil {
			return nil, err
		}
		an.settle(i, an.mm1(i))
	}

	// Response times: a descent R-locks one node per level; updates wait
	// for the leaf W lock, modify, and repair splits upward (rare).
	an.res.RespSearch = an.searchResp(0, 1)
	update := an.leafWriteResp()
	an.res.RespInsert = an.linkInsertResp(update)
	an.res.RespDelete = update
	return an.res, nil
}

// linkWriters returns the arrival and service rates of level i's W
// customers under the Link-type write protocol: every update at the leaf,
// above it only the splits that propagated there.
func (an *analysis) linkWriters(i int) (lw, muW float64) {
	s, mix := an.s, an.mix
	if i > 1 {
		return mix.QI * s.ProdPrF(i-1) * an.lam[i], 1 / (an.mod(i) + s.PrF(i)*an.sp(i))
	}
	wi, wd := updateShares(mix.QI, mix.QD)
	// Inserts half-split a full leaf while holding its W lock; deletes
	// never restructure under merge-at-empty with q_i > q_d.
	tw := wi*(an.m()+s.PrF(1)*an.sp(1)) +
		wd*(an.m()+s.PrEm(1)*an.mg(1))
	if tw > 0 {
		muW = 1 / tw
	}
	return (mix.QI + mix.QD) * an.lam[1], muW
}

// linkInsertResp adds the split repair onto an update's response sum: a
// split at level j performs the half-split, then W-locks the parent and
// inserts the new pointer.
func (an *analysis) linkInsertResp(sum float64) float64 {
	for j := 1; j <= an.h-1; j++ {
		sum += an.s.ProdPrF(j) * (an.sp(j) + an.wWait[j+1] + an.mod(j+1))
	}
	return sum
}
