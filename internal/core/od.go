package core

import (
	"fmt"

	"btreeperf/internal/qmodel"
)

// ODOptions extends the Optimistic Descent analysis with the §7 recovery
// protocols: TTrans is the expected time from the B-tree operation until
// the surrounding transaction commits (the paper uses 100 time units as a
// conservative figure).
type ODOptions struct {
	Recovery RecoveryPolicy
	TTrans   float64
}

// AnalyzeOD evaluates the Optimistic Descent algorithm (§5.1). Update
// operations make an optimistic first descent placing R locks, W-locking
// only the leaf; when the leaf is unsafe they release everything and make
// a second, Naive-Lock-coupling-style descent. The second descents form
// the redo-insert (and, negligibly, redo-delete) operation class:
// its arrival rate is q_i·Pr[F(1)]·λ.
//
// Per-level queue composition:
//
//   - levels h..2: R customers are all first descents (searches and
//     updates), W customers are redo operations only;
//   - level 1 (leaf): R customers are searches; W customers are
//     first-descent updates plus redo operations.
//
// Recovery (§7) extends the leaf W hold times by TTrans (Naive and
// LeafOnly), and the upper-level redo W hold times by Pr[F(i)]·TTrans
// (Naive only).
func AnalyzeOD(m Model, w Workload, opts ODOptions) (*Result, error) {
	an, err := newAnalysis(m, w)
	if err != nil {
		return nil, err
	}
	if opts.TTrans < 0 {
		return nil, fmt.Errorf("core: negative TTrans %v", opts.TTrans)
	}
	an.res.Algorithm = OD
	s, mix, h, lam := an.s, an.mix, an.h, an.lam

	// Redo arrival rates: updates that found an unsafe leaf re-descend.
	redoShareI := mix.QI * s.PrF(1)  // redo-inserts per arriving operation
	redoShareD := mix.QD * s.PrEm(1) // redo-deletes per arriving operation
	redoShare := redoShareI + redoShareD
	wri, wrd := updateShares(redoShareI, redoShareD)

	// hold is what recovery adds to a W lock's hold time at level i.
	hold := func(i int) float64 {
		switch {
		case i == 1 && (opts.Recovery == LeafOnly || opts.Recovery == NaiveRecovery):
			return opts.TTrans
		case i > 1 && opts.Recovery == NaiveRecovery:
			return s.PrF(i) * opts.TTrans
		}
		return 0
	}

	// Redo hold times follow the NLC Theorem 1 recursion.
	tRI := make([]float64, h+1)
	tRD := make([]float64, h+1)

	for i := 1; i <= h; i++ {
		tRI[i], tRD[i] = an.coupledHolds(i, tRI[i-1], tRD[i-1], hold(i))
		var in qmodel.Input
		if i == 1 {
			in.LambdaR = mix.QS * lam[1]
			in.LambdaW = (mix.QI+mix.QD)*lam[1] + redoShare*lam[1]
			in.MuR = 1 / an.se(1)
			// First-descent updates: modify when the leaf is safe,
			// inspect-and-release when it is not (then redo separately).
			tFirstI := (1-s.PrF(1))*(an.m()+hold(1)) + s.PrF(1)*an.se(1)
			tFirstD := (1-s.PrEm(1))*(an.m()+hold(1)) + s.PrEm(1)*an.se(1)
			wi, wd := updateShares(mix.QI, mix.QD)
			firstShare := mix.QI + mix.QD
			var tw float64
			if firstShare+redoShare > 0 {
				tw = (firstShare*(wi*tFirstI+wd*tFirstD) +
					redoShare*(wri*tRI[1]+wrd*tRD[1])) / (firstShare + redoShare)
			}
			if tw > 0 {
				in.MuW = 1 / tw
			}
		} else {
			in.LambdaR = lam[i] // every operation R-locks on its first descent
			in.LambdaW = redoShare * lam[i]
			// R hold: searches couple to the child's R lock; at level 2
			// first-descent updates couple to the leaf's W lock instead.
			tr := an.se(i) + an.rWait[i-1]
			if i == 2 {
				tr = mix.QS*(an.se(2)+an.rWait[1]) +
					(mix.QI+mix.QD)*(an.se(2)+an.wWait[1])
			}
			in.MuR = 1 / tr
			in.MuW = 1 // unused without writers
			if in.LambdaW > 0 {
				in.MuW = 1 / (wri*tRI[i] + wrd*tRD[i])
			}
		}

		sol, err := an.solve(i, in)
		if err != nil {
			return nil, err
		}
		if !sol.Stable {
			return an.saturate(i), nil
		}
		if i == 1 || in.LambdaW == 0 {
			an.settle(i, an.mm1(i))
		} else {
			// Redo W customers use lock coupling: Theorem 3 applies with
			// the redo-insert service structure.
			an.settle(i, an.coupledWait(i, wri, tRI[i-1], hold(i)))
		}
	}

	// Searches R-lock every level; an update makes its first descent and,
	// when the leaf was unsafe, a redo with the NLC formula (Theorem 5).
	an.res.RespSearch = an.searchResp(0, 1)
	firstDescent := an.leafWriteResp()
	redoInsert, redoDelete := an.coupledUpdateResp()
	an.res.RespInsert = firstDescent + s.PrF(1)*redoInsert
	an.res.RespDelete = firstDescent + s.PrEm(1)*redoDelete
	return an.res, nil
}
