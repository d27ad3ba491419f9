// Package core implements the analytical framework of Johnson & Shasha,
// "A Framework for the Performance Analysis of Concurrent B-tree
// Algorithms" (PODS 1990) — the paper's primary contribution.
//
// A concurrent B⁺-tree running algorithm A under an operation mix
// (q_s, q_i, q_d) at total arrival rate λ is modeled as an open network of
// FCFS reader/writer lock queues, one representative queue per tree level.
// For each level the framework computes arrival rates, lock-hold (service)
// times, and lock-waiting times, from which it predicts the expected
// response time of each operation class and the maximum sustainable
// throughput.
//
// Five algorithms are analyzed, the paper's three and two it does not
// carry out:
//
//   - Naive Lock-coupling (AnalyzeNLC) — Theorems 1–5 of the paper,
//   - Optimistic Descent (AnalyzeOD) — including the redo-insert class and
//     the recovery variants of §7,
//   - Link-type / Lehman–Yao (AnalyzeLink),
//   - Two-Phase Locking (AnalyzeTwoPhase) — deferred to the paper's full
//     version,
//   - optimistic lock-coupling (AnalyzeOLC) — Link-type writers under
//     latch-free, version-validated readers, with a restart model.
//
// Each is one file saying what that algorithm's customers are at each
// level and how long they hold the lock; the frame they share (validate,
// per-level λ, solve, settle, saturate) and every theorem, written once,
// are in analysis.go. The closed-form "rules of thumb" of §6 are in
// rules.go, and the maximum throughput and effective-maximum (ρ_w = .5)
// solvers in throughput.go.
package core

import (
	"fmt"

	"btreeperf/internal/shape"
	"btreeperf/internal/workload"
)

// CostModel parameterizes the serial node-access costs of §5.3: the time
// to search the root is the unit of time; nodes on disk cost DiskCost
// times an in-memory access; modifying a leaf costs ModifyFactor leaf
// searches; splitting a node costs SplitFactor node searches (including
// the parent update).
type CostModel struct {
	SearchMem    float64 // in-memory node search time (the paper's unit: 1)
	DiskCost     float64 // on-disk access multiplier (the paper's D)
	MemLevels    int     // number of top levels held in memory
	ModifyFactor float64 // modify cost / search cost (paper: 2)
	SplitFactor  float64 // split cost / search cost (paper: 3)
	MergeFactor  float64 // merge cost / search cost (paper uses splits' 3)
	Dilation     float64 // resource-contention service-time dilation (§5.2)

	// MissProb, when non-nil, replaces the sharp MemLevels split with
	// per-level buffer-pool miss probabilities (index i = tree level i;
	// index 0 unused): Se(i) = SearchMem·(1 + MissProb[i]·(DiskCost−1)).
	// Use BufferedCosts to derive it from a tree shape and an LRU pool
	// size — the "LRU buffering" extension the paper defers to its full
	// version (§8).
	MissProb []float64
}

// PaperCosts is the cost model of the paper's experiments with disk
// cost D: Se(root)=1, two in-memory levels, M=2·Se(leaf), Sp=3·Se.
func PaperCosts(d float64) CostModel {
	return CostModel{
		SearchMem:    1,
		DiskCost:     d,
		MemLevels:    2,
		ModifyFactor: 2,
		SplitFactor:  3,
		MergeFactor:  3,
		Dilation:     1,
	}
}

// Validate checks the cost model.
func (c CostModel) Validate() error {
	if c.SearchMem <= 0 {
		return fmt.Errorf("core: SearchMem %v", c.SearchMem)
	}
	if c.DiskCost < 1 {
		return fmt.Errorf("core: DiskCost %v < 1", c.DiskCost)
	}
	if c.MemLevels < 0 {
		return fmt.Errorf("core: MemLevels %d", c.MemLevels)
	}
	if c.ModifyFactor <= 0 || c.SplitFactor <= 0 || c.MergeFactor <= 0 {
		return fmt.Errorf("core: non-positive cost factor %+v", c)
	}
	if c.Dilation <= 0 {
		return fmt.Errorf("core: Dilation %v", c.Dilation)
	}
	return nil
}

// onDisk reports whether level i of an h-level tree resides on disk.
func (c CostModel) onDisk(i, h int) bool { return i <= h-c.MemLevels }

// Se returns the expected time to search a level-i node of an h-level tree.
func (c CostModel) Se(i, h int) float64 {
	t := c.SearchMem
	switch {
	case c.MissProb != nil:
		miss := 1.0 // levels beyond the modeled shape are assumed cold
		if i < len(c.MissProb) {
			miss = c.MissProb[i]
		}
		t *= 1 + miss*(c.DiskCost-1)
	case c.onDisk(i, h):
		t *= c.DiskCost
	}
	return t * c.Dilation
}

// MissAt returns the buffer-miss probability the model charges level i of
// an h-level tree (1 for on-disk levels and 0 for in-memory ones when
// MissProb is unset).
func (c CostModel) MissAt(i, h int) float64 {
	if c.MissProb != nil {
		if i < len(c.MissProb) {
			return c.MissProb[i]
		}
		return 1
	}
	if c.onDisk(i, h) {
		return 1
	}
	return 0
}

// M returns the expected time to modify a leaf of an h-level tree.
func (c CostModel) M(h int) float64 { return c.ModifyFactor * c.Se(1, h) }

// Mod returns the expected time to modify a level-i node (pointer insertion
// under the Link-type algorithm).
func (c CostModel) Mod(i, h int) float64 { return c.ModifyFactor * c.Se(i, h) }

// Sp returns the expected time to split a level-i node (the parent update
// is included, per the paper).
func (c CostModel) Sp(i, h int) float64 { return c.SplitFactor * c.Se(i, h) }

// Mg returns the expected time to merge (remove) a level-i node.
func (c CostModel) Mg(i, h int) float64 { return c.MergeFactor * c.Se(i, h) }

// Workload is the offered load: total arrival rate λ and the operation mix.
type Workload struct {
	Lambda float64
	Mix    workload.Mix
}

// Validate checks the workload.
func (w Workload) Validate() error {
	if w.Lambda < 0 {
		return fmt.Errorf("core: negative arrival rate %v", w.Lambda)
	}
	return w.Mix.Validate()
}

// Model bundles the tree shape and the cost model — everything about the
// system except the offered load.
type Model struct {
	Shape *shape.Model
	Costs CostModel
}

// Validate checks the model.
func (m Model) Validate() error {
	if m.Shape == nil {
		return fmt.Errorf("core: nil shape")
	}
	return m.Costs.Validate()
}

// Algorithm identifies a concurrency-control algorithm.
type Algorithm int

const (
	// NLC is Naive Lock-coupling (Bayer & Schkolnick).
	NLC Algorithm = iota
	// OD is Optimistic Descent.
	OD
	// Link is the Link-type (Lehman–Yao) algorithm.
	Link
	// TwoPhase is strict Two-Phase Locking on the whole descent path —
	// the additional algorithm the paper defers to its full version.
	TwoPhase
	// OLC is optimistic lock-coupling: version-validated latch-free
	// descents with bounded retry over a Link-type writer protocol — the
	// fourth algorithm, beyond the paper's original three.
	OLC
)

func (a Algorithm) String() string {
	switch a {
	case NLC:
		return "naive-lock-coupling"
	case OD:
		return "optimistic-descent"
	case Link:
		return "link-type"
	case TwoPhase:
		return "two-phase-locking"
	case OLC:
		return "olc"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm resolves an algorithm's command-line name (nlc, od, link,
// 2pl, olc), its longer alias or its String form.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "nlc", "lock-coupling", "naive-lock-coupling":
		return NLC, nil
	case "od", "optimistic", "optimistic-descent":
		return OD, nil
	case "link", "lehman-yao", "link-type":
		return Link, nil
	case "2pl", "two-phase", "two-phase-locking":
		return TwoPhase, nil
	case "olc", "optimistic-lock-coupling":
		return OLC, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q (want nlc, od, link, 2pl or olc)", s)
	}
}

// RecoveryPolicy selects the §7 recovery protocol layered on an algorithm.
type RecoveryPolicy int

const (
	// NoRecovery releases every lock as the algorithm dictates.
	NoRecovery RecoveryPolicy = iota
	// LeafOnly holds leaf W locks until transaction commit.
	LeafOnly
	// NaiveRecovery holds every W lock until transaction commit.
	NaiveRecovery
)

func (r RecoveryPolicy) String() string {
	switch r {
	case NoRecovery:
		return "none"
	case LeafOnly:
		return "leaf-only"
	case NaiveRecovery:
		return "naive"
	default:
		return fmt.Sprintf("RecoveryPolicy(%d)", int(r))
	}
}

// ParseRecovery resolves a recovery protocol's command-line name (none,
// leaf, naive) or its String form.
func ParseRecovery(s string) (RecoveryPolicy, error) {
	switch s {
	case "none":
		return NoRecovery, nil
	case "leaf", "leaf-only":
		return LeafOnly, nil
	case "naive":
		return NaiveRecovery, nil
	default:
		return 0, fmt.Errorf("unknown recovery %q (want none, leaf or naive)", s)
	}
}

// LevelResult is the solved operating point of one level's lock queue.
type LevelResult struct {
	Level   int
	LambdaR float64 // reader arrival rate
	LambdaW float64 // writer arrival rate
	MuR     float64 // reader service rate
	MuW     float64 // writer service rate
	RhoW    float64 // P(writer in queue) — the paper's ρ_w(i)
	RU      float64 // reader drain behind a queued writer
	RE      float64 // reader drain with no queued writer
	TA      float64 // aggregate customer service time (Theorem 6)
	R       float64 // expected R-lock waiting time
	W       float64 // expected W-lock waiting time
	Stable  bool
	Solved  bool // false where AnalyzeMeasured had no usable rates, and from a lock-coupled analysis's saturated level up
}

// Result is a full analysis of one algorithm at one operating point.
type Result struct {
	Algorithm Algorithm
	Lambda    float64
	Levels    []LevelResult // Levels[0] is the leaf level (level 1)
	Stable    bool

	RespSearch float64 // Per(S)
	RespInsert float64 // Per(I)
	RespDelete float64 // Per(D)

	// OLC-only diagnostics (zero for the locking algorithms): the
	// restart process of the latch-free descent. ReadConflict[i] is the
	// probability one validation of a level-i node fails (index 0
	// unused); RestartProb is the mix-weighted probability a whole
	// latch-free descent must restart; FallbackProb is the mix-weighted
	// probability all lock.OLCMaxAttempts descents fail and the operation
	// takes the locked path; RestartsPerOp is the mix-weighted expected
	// number of failed descents per operation.
	ReadConflict  []float64
	RestartProb   float64
	FallbackProb  float64
	RestartsPerOp float64
}

// Level returns the solved queue of level i (1 = leaf).
func (r *Result) Level(i int) LevelResult { return r.Levels[i-1] }

// RootRhoW returns ρ_w at the root — the quantity Theorem 2's maximum
// throughput condition and the §6 rules of thumb are stated in.
func (r *Result) RootRhoW() float64 { return r.Levels[len(r.Levels)-1].RhoW }

// RespMean returns the mix-weighted mean response time.
func (r *Result) RespMean(mix workload.Mix) float64 {
	return mix.QS*r.RespSearch + mix.QI*r.RespInsert + mix.QD*r.RespDelete
}
