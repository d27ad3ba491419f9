// Package btreeperf reproduces Johnson & Shasha, "A Framework for the
// Performance Analysis of Concurrent B-tree Algorithms" (PODS 1990), as a
// production-quality Go library. It exposes three layers:
//
//   - A concurrent B⁺-tree (NewTree) safe for any number of goroutines,
//     with four concurrency-control algorithms — the paper's naive lock
//     coupling, optimistic descent and Link-type (Lehman–Yao), and
//     optimistic lock-coupling (latch-free reads) — selectable at
//     construction.
//
//   - The paper's analytical framework (NewModel, Analyze, MaxThroughput,
//     rules of thumb): closed-form performance prediction of response
//     times and maximum throughput for a B-tree under a given operation
//     mix, arrival rate, node size and disk-cost model.
//
//   - The validation simulator (RunSim): a process-oriented discrete-event
//     simulation that executes the real algorithms on a real tree in
//     virtual time, reproducing the measurements the analysis predicts.
//
// Quick start with the concurrent tree:
//
//	t := btreeperf.NewTree(64, btreeperf.LinkType)
//	t.Insert(42, 1)
//	v, ok := t.Search(42)
//
// Capacity planning with the analytical model:
//
//	m, _ := btreeperf.NewModel(1_000_000, 128, btreeperf.PaperCosts(5), 0.5, 0.2)
//	lmax, _ := btreeperf.MaxThroughput(btreeperf.Link, m,
//	    btreeperf.Workload{Mix: btreeperf.PaperMix}, 0)
//
// The cmd/ directory ships btmodel (analysis), btsim (simulation) and
// btfigures (regenerate every figure of the paper's evaluation).
package btreeperf

import (
	"btreeperf/internal/cbtree"
	"btreeperf/internal/core"
	"btreeperf/internal/diskbtree"
	"btreeperf/internal/shape"
	"btreeperf/internal/sim"
	"btreeperf/internal/workload"
)

// ---------------------------------------------------------------------------
// Concurrent B⁺-tree.

// Tree is a goroutine-safe concurrent B⁺-tree. See NewTree.
type Tree = cbtree.Tree

// TreeAlgorithm selects the concurrency-control protocol of a Tree.
type TreeAlgorithm = cbtree.Algorithm

// Concurrency-control protocols for NewTree.
const (
	// LockCoupling is Bayer & Schkolnick's naive lock coupling.
	LockCoupling = cbtree.LockCoupling
	// Optimistic is the optimistic-descent protocol.
	Optimistic = cbtree.Optimistic
	// LinkType is the Lehman–Yao right-link protocol (recommended; the
	// paper shows it dominates the others at every concurrency level).
	LinkType = cbtree.LinkType
	// TreeOLC is optimistic lock-coupling: Link-type writers plus
	// version-validated latch-free reads that never touch the lock
	// queues, restarting on conflict with a bounded-retry fallback to
	// the locked path. Best read-side latency under read-heavy load.
	TreeOLC = cbtree.OLC
)

// TreeStats counts a Tree's structural and protocol events.
type TreeStats = cbtree.Stats

// NewTree creates an empty concurrent B⁺-tree whose nodes hold at most
// cap items (cap >= 3) under the given protocol.
func NewTree(cap int, alg TreeAlgorithm) *Tree { return cbtree.New(cap, alg) }

// BulkLoadTree builds a concurrent tree bottom-up from sorted data with a
// target fill factor — far faster than repeated Insert.
func BulkLoadTree(cap int, alg TreeAlgorithm, keys []int64, vals []uint64, fill float64) (*Tree, error) {
	return cbtree.BulkLoad(cap, alg, keys, vals, fill)
}

// ---------------------------------------------------------------------------
// Disk-backed concurrent B⁺-tree.

// DiskTree is a disk-backed concurrent B⁺-tree under the Lehman–Yao
// protocol, with an LRU buffer pool over fixed-size checksummed pages.
// See OpenDiskTree and internal/diskbtree for the concurrency and
// durability contract.
type DiskTree = diskbtree.Tree

// DiskTreeOptions configures OpenDiskTree.
type DiskTreeOptions = diskbtree.Options

// DiskCacheStats reports a DiskTree's buffer-pool effectiveness — the
// measured counterpart of the BufferedCosts analytical model.
type DiskCacheStats = diskbtree.CacheStats

// OpenDiskTree opens (creating if necessary) a disk-backed tree at path.
func OpenDiskTree(path string, opts DiskTreeOptions) (*DiskTree, error) {
	return diskbtree.Open(path, opts)
}

// ---------------------------------------------------------------------------
// Analytical framework.

// Algorithm identifies an algorithm in the analytical framework and the
// simulator.
type Algorithm = core.Algorithm

// Analyzable algorithms. TwoPhase (strict two-phase locking of the whole
// descent path) is the extension the paper defers to its full version;
// it lower-bounds the other protocols.
const (
	NLC      = core.NLC
	OD       = core.OD
	Link     = core.Link
	TwoPhase = core.TwoPhase
	OLC      = core.OLC
)

// RecoveryPolicy selects the §7 recovery protocol.
type RecoveryPolicy = core.RecoveryPolicy

// Recovery protocols.
const (
	NoRecovery    = core.NoRecovery
	LeafOnly      = core.LeafOnly
	NaiveRecovery = core.NaiveRecovery
)

// Mix holds operation proportions (q_s, q_i, q_d).
type Mix = workload.Mix

// PaperMix is the paper's operation mix: 30% searches, 50% inserts,
// 20% deletes.
var PaperMix = workload.PaperMix

// CostModel parameterizes node-access costs (root search = 1 time unit).
type CostModel = core.CostModel

// PaperCosts returns the paper's cost model with disk-cost multiplier d.
func PaperCosts(d float64) CostModel { return core.PaperCosts(d) }

// Model bundles a tree shape with a cost model.
type Model = core.Model

// Workload is an offered load: arrival rate λ plus operation mix.
type Workload = core.Workload

// Result is a solved analytical operating point.
type Result = core.Result

// LevelResult is one level's solved lock queue.
type LevelResult = core.LevelResult

// ODOptions extends the Optimistic Descent analysis with recovery.
type ODOptions = core.ODOptions

// TreeShape is the analytical B-tree shape model (heights, fanouts, split
// probabilities) of Johnson & Shasha [9,10].
type TreeShape = shape.Model

// NewModel derives the analytical model of a merge-at-empty B-tree holding
// items keys in nodes of capacity n under the given insert/delete
// fractions, with the given cost model.
func NewModel(items, n int, costs CostModel, qi, qd float64) (Model, error) {
	s, err := shape.New(items, n, qi, qd)
	if err != nil {
		return Model{}, err
	}
	return Model{Shape: s, Costs: costs}, nil
}

// NewModelWithHeight forces an explicit height and root fanout.
func NewModelWithHeight(height, n int, rootFanout float64, costs CostModel, qi, qd float64) (Model, error) {
	s, err := shape.NewWithHeight(height, n, rootFanout, qi, qd)
	if err != nil {
		return Model{}, err
	}
	return Model{Shape: s, Costs: costs}, nil
}

// BufferedCosts replaces the sharp "top levels in memory" assumption with
// an LRU buffer pool of bufferNodes frames, deriving per-level miss
// probabilities from the tree shape — the "LRU buffering" extension the
// paper defers to its full version (§8).
func BufferedCosts(s *TreeShape, bufferNodes float64, base CostModel) (CostModel, error) {
	return core.BufferedCosts(s, bufferNodes, base)
}

// ExpectedHitRatio returns a cost model's buffer hit ratio for a uniform
// search workload over the given shape.
func ExpectedHitRatio(s *TreeShape, c CostModel) float64 {
	return core.ExpectedHitRatio(s, c)
}

// Analyze predicts response times and per-level queue behavior for an
// algorithm under a workload.
func Analyze(a Algorithm, m Model, w Workload) (*Result, error) { return core.Analyze(a, m, w) }

// AnalyzeOD is Analyze for Optimistic Descent with recovery options.
func AnalyzeOD(m Model, w Workload, opts ODOptions) (*Result, error) {
	return core.AnalyzeOD(m, w, opts)
}

// MaxThroughput returns the largest sustainable arrival rate (rtol <= 0
// uses a 1e-4 relative tolerance).
func MaxThroughput(a Algorithm, m Model, mix Workload, rtol float64) (float64, error) {
	return core.MaxThroughput(a, m, mix, rtol)
}

// EffectiveMaxThroughput returns the arrival rate at which the root's
// writer presence reaches target (the paper uses 0.5).
func EffectiveMaxThroughput(a Algorithm, m Model, mix Workload, target, rtol float64) (float64, error) {
	return core.EffectiveMaxThroughput(a, m, mix, target, rtol)
}

// Rules of thumb (§6): closed-form approximations of the effective maximum
// arrival rate λ_{ρ=.5}.
var (
	RuleOfThumb1 = core.RuleOfThumb1 // Naive Lock-coupling
	RuleOfThumb2 = core.RuleOfThumb2 // Naive Lock-coupling, large-node limit
	RuleOfThumb3 = core.RuleOfThumb3 // Optimistic Descent
	RuleOfThumb4 = core.RuleOfThumb4 // Optimistic Descent, large-node limit
)

// ---------------------------------------------------------------------------
// Simulator.

// SimConfig parameterizes one simulation run.
type SimConfig = sim.Config

// SimResult holds one run's measurements.
type SimResult = sim.Result

// SimReplicated aggregates runs across seeds.
type SimReplicated = sim.Replicated

// PaperSim returns the paper's baseline simulator configuration for an
// algorithm at arrival rate lambda and disk cost d.
func PaperSim(a Algorithm, lambda, d float64) SimConfig { return sim.Paper(a, lambda, d) }

// RunSim executes one simulation.
func RunSim(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// RunSimSeeds executes one simulation per seed and aggregates.
func RunSimSeeds(cfg SimConfig, seeds []uint64) (*SimReplicated, error) {
	return sim.RunSeeds(cfg, seeds)
}

// SimSeeds returns n sequential seeds starting at 1.
func SimSeeds(n int) []uint64 { return sim.DefaultSeeds(n) }
