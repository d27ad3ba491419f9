package core

import (
	"fmt"
	"math"

	"btreeperf/internal/qmodel"
	"btreeperf/internal/shape"
	"btreeperf/internal/workload"
)

// analysis is the frame every Analyze* function works in: the validated
// model unpacked, the per-level arrival rates, the Result being filled and
// the queue of every level solved so far. An algorithm's file says what
// its customers are at each level and how long they hold the lock, then
// calls solve and settle level by level; the theorems below are written
// once, in terms of the frame. A new station (a queue in front of or
// behind the tree) is one more solve/settle pair.
//
// Every helper takes values — a share, a hold time, a running sum — never
// the algorithm it is serving, and adds terms in the order the paper
// writes them: the golden file holds each result to the last bit.
type analysis struct {
	s   *shape.Model
	c   CostModel
	h   int
	mix workload.Mix
	lam []float64 // λ_i, index = level (Proposition 2)
	res *Result

	in    []qmodel.Input    // level i's queue as handed to solve
	sol   []qmodel.Solution // and its operating point
	rWait []float64         // R(i)
	wWait []float64         // W(i)
}

// newAnalysis validates the inputs and lays out the frame. The caller
// names the algorithm in res.
func newAnalysis(m Model, w Workload) (*analysis, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	an := newFrame(m.Shape.Height)
	an.s, an.c, an.mix, an.lam = m.Shape, m.Costs, w.Mix, levelLambdas(m.Shape, w.Lambda)
	an.res.Lambda = w.Lambda
	return an, nil
}

// newFrame lays out the queues of an h-level frame, with no shape, costs
// or offered load behind them.
func newFrame(h int) *analysis {
	return &analysis{
		h:     h,
		res:   &Result{Stable: true, Levels: make([]LevelResult, h)},
		in:    make([]qmodel.Input, h+1),
		sol:   make([]qmodel.Solution, h+1),
		rWait: make([]float64, h+1),
		wWait: make([]float64, h+1),
	}
}

// Serial costs at level i of this tree.
func (an *analysis) se(i int) float64  { return an.c.Se(i, an.h) }
func (an *analysis) m() float64        { return an.c.M(an.h) }
func (an *analysis) mod(i int) float64 { return an.c.Mod(i, an.h) }
func (an *analysis) sp(i int) float64  { return an.c.Sp(i, an.h) }
func (an *analysis) mg(i int) float64  { return an.c.Mg(i, an.h) }

// solve finds the operating point of level i's FCFS R/W queue.
func (an *analysis) solve(i int, in qmodel.Input) (qmodel.Solution, error) {
	sol, err := qmodel.Solve(in)
	if err != nil {
		return sol, fmt.Errorf("core: level %d: %w", i, err)
	}
	an.in[i], an.sol[i] = in, sol
	return sol, nil
}

// settle records level i's R-lock wait r, derives the W-lock wait from it
// — a writer also waits for the readers ahead of it to drain — and fills
// the level's result.
func (an *analysis) settle(i int, r float64) {
	in, sol := an.in[i], an.sol[i]
	an.rWait[i] = r
	an.wWait[i] = r + sol.RhoW*sol.RU + (1-sol.RhoW)*sol.RE
	an.res.Levels[i-1] = LevelResult{
		Level: i, LambdaR: in.LambdaR, LambdaW: in.LambdaW, MuR: in.MuR, MuW: in.MuW,
		RhoW: sol.RhoW, RU: sol.RU, RE: sol.RE, TA: sol.TA,
		R: r, W: an.wWait[i], Stable: sol.Stable, Solved: true,
	}
	if !sol.Stable {
		an.res.Stable = false
	}
}

// saturate marks level i and everything above it as saturated — ρ_w = 1,
// infinite waits, infinite response times — and ends the analysis: under
// lock coupling the hold times above a saturated level are undefined.
// Levels below i keep their solved values.
func (an *analysis) saturate(i int) *Result {
	inf := math.Inf(1)
	for j := i; j <= an.h; j++ {
		an.res.Levels[j-1] = LevelResult{
			Level:   j,
			LambdaR: an.mix.QS * an.lam[j],
			LambdaW: (1 - an.mix.QS) * an.lam[j],
			RhoW:    1,
			R:       inf,
			W:       inf,
		}
	}
	an.res.Stable = false
	an.res.RespSearch, an.res.RespInsert, an.res.RespDelete = inf, inf, inf
	return an.res
}

// coupledHolds is Theorem 1: the W-lock hold times T(I,i) and T(D,i) of
// lock-coupled inserts and deletes, from those one level down. The lock
// on a level-i node is held while the node is searched, the child's lock
// is waited for, and — when the child is unsafe — while the child's own
// hold runs and its split (merge) is carried out. hold is what a recovery
// protocol keeps the lock for beyond that (§7).
func (an *analysis) coupledHolds(i int, tIBelow, tDBelow, hold float64) (tI, tD float64) {
	if i == 1 {
		return an.m() + hold, an.m() + hold
	}
	s := an.s
	tI = an.se(i) + an.wWait[i-1] +
		s.PrF(i-1)*tIBelow + an.sp(i-1)*s.ProdPrF(i-1) + hold
	tD = an.se(i) + an.wWait[i-1] +
		s.PrEm(i-1)*tDBelow + an.mg(i-1)*prodPrEm(s, i-1) + hold
	return tI, tD
}

// mm1 is Theorem 4: level i's R wait as an M/M/1 queue of aggregate
// customers.
func (an *analysis) mm1(i int) float64 {
	return qmodel.MM1Wait(an.sol[i].RhoW, an.sol[i].TA)
}

// coupledWait is Theorem 3: level i's R wait as an M/G/1 queue whose
// service is hyperexponential — a lock-coupled writer holds level i for
// the search and the reader drain (plus a recovery hold), and with
// probability wi·Pr[F(i−1)] also through the unsafe child's stage: the
// child is modified and, with the probability the split propagated up to
// it, split. wi is the insert share of the level's W customers and
// tIBelow their insert hold time one level down.
func (an *analysis) coupledWait(i int, wi, tIBelow, hold float64) float64 {
	sol, below := an.sol[i], an.sol[i-1]
	pf := wi * an.s.PrF(i-1)
	te := an.se(i) + sol.RhoW*sol.RU + (1-sol.RhoW)*sol.RE + hold
	// ∏_{k=1}^{i-2} Pr[F(k)] is the empty product 1 when i = 2.
	tf := tIBelow + an.sp(i-1)*prodPrFBelow(an.s, i-2)
	rhoO := below.RhoW
	muO := math.Inf(1)
	if rhoO > 0 {
		muO = 1 / (an.rWait[i-1]/rhoO + below.RU)
	}
	_, ex2 := qmodel.Theorem3Moments(te, pf, tf, rhoO, muO, below.RE)
	return qmodel.MG1Wait(an.in[i].LambdaW, ex2, sol.RhoW)
}

// searchResp is Theorem 5's descent: onto sum, the node search and the
// R-lock wait at every level from the root down to lo.
func (an *analysis) searchResp(sum float64, lo int) float64 {
	for i := lo; i <= an.h; i++ {
		sum += an.se(i) + an.rWait[i]
	}
	return sum
}

// splitWork adds onto sum the expected restructuring of one insert under
// held locks: a split at level j with probability ∏_{k≤j} Pr[F(k)].
func (an *analysis) splitWork(sum float64) float64 {
	for j := 1; j <= an.h-1; j++ {
		sum += an.s.ProdPrF(j) * an.sp(j)
	}
	return sum
}

// coupledUpdateResp is Theorem 5 for lock-coupled updates: W-lock waits
// and node searches down the path, the leaf modification, and for
// inserts the splits.
func (an *analysis) coupledUpdateResp() (ins, del float64) {
	del = an.m() + an.wWait[1]
	for i := 2; i <= an.h; i++ {
		del += an.se(i) + an.wWait[i]
	}
	ins = an.m()
	for i := 2; i <= an.h; i++ {
		ins += an.se(i)
	}
	for i := 1; i <= an.h; i++ {
		ins += an.wWait[i]
	}
	return an.splitWork(ins), del
}

// leafWriteResp is an update that R-locks its way down to level 2 and
// W-locks only the leaf: an Optimistic Descent first descent, a Link-type
// update.
func (an *analysis) leafWriteResp() float64 {
	return an.searchResp(an.m()+an.wWait[1], 2)
}

// levelLambdas distributes the root arrival rate down the tree:
// λ_h = λ, λ_i = λ_{i+1}/E(i+1) (Proposition 2).
func levelLambdas(s *shape.Model, lambda float64) []float64 {
	h := s.Height
	l := make([]float64, h+1)
	l[h] = lambda
	for i := h - 1; i >= 1; i-- {
		l[i] = l[i+1] / s.E(i+1)
	}
	return l
}

// updateShares returns the insert and delete shares among update
// operations; both zero when there are no updates.
func updateShares(qi, qd float64) (wi, wd float64) {
	if qi+qd <= 0 {
		return 0, 0
	}
	return qi / (qi + qd), qd / (qi + qd)
}

// prodPrEm is ∏_{k=1..i} Pr[Em(k)].
func prodPrEm(s *shape.Model, i int) float64 {
	p := 1.0
	for k := 1; k <= i; k++ {
		p *= s.PrEm(k)
	}
	return p
}

// prodPrFBelow is ∏_{k=1..i} Pr[F(k)] with the empty product (i < 1)
// defined as 1.
func prodPrFBelow(s *shape.Model, i int) float64 {
	if i < 1 {
		return 1
	}
	return s.ProdPrF(i)
}
