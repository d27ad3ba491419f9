// Package sim is the concurrent B-tree simulator of the paper's §4. It
// builds an actual B⁺-tree from a sequence of insert and delete operations
// (with the same insert:delete proportion as the concurrent phase), then
// performs concurrent operations arriving in a Poisson process, each
// executing the real concurrency-control protocol — Naive Lock-coupling,
// Optimistic Descent, Link-type, Two-Phase Locking or optimistic
// lock-coupling — against the real tree, in virtual time with
// exponentially distributed service times.
//
// The simulator measures operation response times, per-level lock waiting
// times, the root's writer presence ρ_w, Optimistic Descent restarts and
// Link-type link crossings — the quantities the analytical framework in
// internal/core predicts.
package sim

import (
	"fmt"

	"btreeperf/internal/btree"
	"btreeperf/internal/core"
	"btreeperf/internal/des"
	"btreeperf/internal/stats"
	"btreeperf/internal/workload"
	"btreeperf/internal/xrand"
)

// Config parameterizes one simulation run.
type Config struct {
	Algorithm core.Algorithm
	Recovery  core.RecoveryPolicy
	TTrans    float64 // transaction commit delay for recovery protocols

	NodeCap      int // maximum items per node (the paper's N = 13)
	InitialItems int // tree size before the concurrent phase (≈40,000)
	Mix          workload.Mix
	Lambda       float64 // total operation arrival rate
	Costs        core.CostModel
	Ops          int // concurrent operations to perform (paper: 10,000)
	Warmup       int // leading operations excluded from statistics
	Seed         uint64
	MaxInFlight  int   // concurrent-operation space; exceeded ⇒ unstable
	KeySpace     int64 // insert keys are uniform over [0, KeySpace)
}

// Paper returns the paper's baseline configuration for an algorithm at
// arrival rate lambda with disk cost d.
func Paper(a core.Algorithm, lambda, d float64) Config {
	return Config{
		Algorithm:    a,
		NodeCap:      13,
		InitialItems: 40000,
		Mix:          workload.PaperMix,
		Lambda:       lambda,
		Costs:        core.PaperCosts(d),
		Ops:          10000,
		Warmup:       1000,
		Seed:         1,
		MaxInFlight:  20000,
		KeySpace:     1 << 31,
	}
}

// Validate checks the configuration, filling defaults for zero fields.
func (c *Config) Validate() error {
	if c.NodeCap < 3 {
		return fmt.Errorf("sim: node capacity %d", c.NodeCap)
	}
	if c.InitialItems < 1 {
		return fmt.Errorf("sim: initial items %d", c.InitialItems)
	}
	if err := c.Mix.Validate(); err != nil {
		return err
	}
	if c.Lambda <= 0 {
		return fmt.Errorf("sim: arrival rate %v", c.Lambda)
	}
	if err := c.Costs.Validate(); err != nil {
		return err
	}
	if c.Ops < 1 {
		return fmt.Errorf("sim: ops %d", c.Ops)
	}
	if c.Warmup < 0 || c.Warmup >= c.Ops {
		return fmt.Errorf("sim: warmup %d outside [0, %d)", c.Warmup, c.Ops)
	}
	if c.TTrans < 0 {
		return fmt.Errorf("sim: TTrans %v", c.TTrans)
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 20000
	}
	if c.KeySpace == 0 {
		c.KeySpace = 1 << 31
	}
	return nil
}

// LevelWait summarizes the lock waiting observed on one tree level.
type LevelWait struct {
	Level     int
	MeanWaitR float64
	MeanWaitW float64
	GrantsR   int64
	GrantsW   int64
}

// Result holds the measurements of one run.
type Result struct {
	Config Config

	Completed  int     // operations that finished
	Measured   int     // operations included in statistics
	Duration   float64 // virtual time of the concurrent phase
	Unstable   bool    // the in-flight population exceeded MaxInFlight
	TreeHeight int

	RespSearch stats.Summary
	RespInsert stats.Summary
	RespDelete stats.Summary

	// Percentiles holds the response-time distribution of all measured
	// operations combined (histogram-approximated).
	Percentiles Percentiles

	LevelWaits []LevelWait // index 0 = leaf level
	RootRhoW   float64     // time-average writer presence at the root

	Restarts      int64 // Optimistic Descent second descents
	LinkCrossings int64 // Link-type / OLC right-link follows
	Splits        int64 // node splits during the concurrent phase

	ReadRestarts  int64 // OLC failed latch-free descents
	ReadFallbacks int64 // OLC descents that fell back to the locked path
}

// RespMean returns the mix-weighted mean response time of the run.
func (r *Result) RespMean() float64 {
	m := r.Config.Mix
	return m.QS*r.RespSearch.Mean + m.QI*r.RespInsert.Mean + m.QD*r.RespDelete.Mean
}

// Percentiles summarizes a response-time distribution.
type Percentiles struct {
	P50 float64
	P90 float64
	P95 float64
	P99 float64
	Max float64
}

// session is the mutable state of one run.
type session struct {
	cfg  Config
	env  *des.Environment
	tree *btree.Tree
	h    int // height at the start of the concurrent phase

	locks     map[*btree.Node]*des.RWLock
	lockOrder []*des.RWLock
	lockLevel map[*des.RWLock]int

	svc *xrand.Source // service-time draws

	// OLC state: per-node seqlock-style version words (even = stable,
	// odd = write-locked), bumped around every W critical section when
	// versioned is set.
	versioned bool
	ver       map[*btree.Node]uint64

	respSearch, respInsert, respDelete stats.Welford
	respHist                           *stats.Histogram
	respMax                            float64
	inFlight                           int
	completed                          int
	measured                           int
	unstable                           bool
	restarts                           int64
	crossings                          int64
	readRestarts                       int64
	readFallbacks                      int64
}

// Run executes one simulation.
func Run(cfg Config) (*Result, error) {
	res, _, err := run(cfg)
	return res, err
}

// run executes one simulation, also returning the session so tests can
// inspect the final tree.
func run(cfg Config) (*Result, *session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	root := xrand.New(cfg.Seed)

	// Construction phase (§4): build the tree with the concurrent mix's
	// insert:delete proportion.
	tree, pool, err := workload.Build(cfg.NodeCap, cfg.InitialItems, cfg.Mix, cfg.KeySpace, root.Split(1))
	if err != nil {
		return nil, nil, err
	}
	gen, err := workload.NewGenerator(cfg.Mix, pool, cfg.KeySpace, root.Split(2))
	if err != nil {
		return nil, nil, err
	}

	s := &session{
		cfg:       cfg,
		env:       des.NewEnvironment(),
		tree:      tree,
		h:         tree.Height(),
		locks:     make(map[*btree.Node]*des.RWLock),
		lockLevel: make(map[*des.RWLock]int),
		svc:       root.Split(3),
	}
	if cfg.Algorithm == core.OLC {
		s.versioned = true
		s.ver = make(map[*btree.Node]uint64)
	}
	// Unwind any process still parked when the run ends — on a normal
	// drain there are none, but an early exit (unstable abort, panic)
	// must not leak one goroutine per abandoned process.
	defer s.env.Close()
	// Response histogram spanning from zero to 200× the worst-case serial
	// descent (responses beyond land in the overflow bucket and clip the
	// high quantiles; Max is tracked exactly).
	serial := 0.0
	for i := 1; i <= s.h; i++ {
		serial += cfg.Costs.Se(i, s.h)
	}
	serial += cfg.Costs.M(s.h)
	s.respHist = stats.NewHistogram(0, 200*serial, 4000)

	splitsBefore := tree.Stats().Splits

	arrivals := root.Split(4)
	s.env.Spawn("arrivals", func(p *des.Proc) {
		for i := 0; i < cfg.Ops; i++ {
			p.Delay(arrivals.ExpRate(cfg.Lambda))
			if s.inFlight >= cfg.MaxInFlight {
				s.unstable = true
				return
			}
			op, key := gen.Next()
			idx := i
			s.inFlight++
			s.env.Spawn("op", func(q *des.Proc) {
				start := q.Now()
				done := s.runOp(q, op, key)
				s.inFlight--
				s.completed++
				if idx >= cfg.Warmup {
					s.measured++
					resp := done - start
					s.respHist.Add(resp)
					if resp > s.respMax {
						s.respMax = resp
					}
					switch op {
					case workload.Search:
						s.respSearch.Add(resp)
					case workload.Insert:
						s.respInsert.Add(resp)
					case workload.Delete:
						s.respDelete.Add(resp)
					}
				}
			})
		}
	})
	end := s.env.RunAll()

	res := &Result{
		Config:     cfg,
		Completed:  s.completed,
		Measured:   s.measured,
		Duration:   end,
		Unstable:   s.unstable,
		TreeHeight: tree.Height(),
		RespSearch: summaryOf(&s.respSearch),
		RespInsert: summaryOf(&s.respInsert),
		RespDelete: summaryOf(&s.respDelete),
		Restarts:   s.restarts,
		Splits:     tree.Stats().Splits - splitsBefore,

		LinkCrossings: s.crossings,
		ReadRestarts:  s.readRestarts,
		ReadFallbacks: s.readFallbacks,
		Percentiles: Percentiles{
			P50: s.respHist.Quantile(0.50),
			P90: s.respHist.Quantile(0.90),
			P95: s.respHist.Quantile(0.95),
			P99: s.respHist.Quantile(0.99),
			Max: s.respMax,
		},
	}

	// Aggregate per-level lock waits in lock-creation order (deterministic).
	waitR := make([]stats.Welford, s.h+2)
	waitW := make([]stats.Welford, s.h+2)
	grantsR := make([]int64, s.h+2)
	grantsW := make([]int64, s.h+2)
	for _, l := range s.lockOrder {
		lv := s.lockLevel[l]
		if lv > s.h+1 {
			lv = s.h + 1
		}
		snap := l.Snapshot(end)
		waitR[lv].Merge(l.WaitWelford(des.Read))
		waitW[lv].Merge(l.WaitWelford(des.Write))
		grantsR[lv] += snap.GrantsR
		grantsW[lv] += snap.GrantsW
	}
	for lv := 1; lv <= s.h; lv++ {
		res.LevelWaits = append(res.LevelWaits, LevelWait{
			Level:     lv,
			MeanWaitR: waitR[lv].Mean(),
			MeanWaitW: waitW[lv].Mean(),
			GrantsR:   grantsR[lv],
			GrantsW:   grantsW[lv],
		})
	}
	if l, ok := s.locks[tree.Root()]; ok {
		res.RootRhoW = l.Snapshot(end).RhoW
	}
	return res, s, nil
}

func summaryOf(w *stats.Welford) stats.Summary {
	return stats.Summary{Mean: w.Mean(), CI95: w.CI95(), N: int(w.N()), Min: w.Min(), Max: w.Max()}
}

// runOp dispatches one operation to the configured algorithm, returning
// its logical completion time (which excludes any post-commit lock
// retention under a recovery protocol).
func (s *session) runOp(p *des.Proc, op workload.Op, key int64) float64 {
	switch s.cfg.Algorithm {
	case core.NLC:
		if op == workload.Search {
			return s.coupledSearch(p, key, never)
		}
		return s.coupledUpdate(p, op, key, s.whileUnsafe(op))
	case core.OD:
		if op == workload.Search {
			return s.coupledSearch(p, key, never)
		}
		return s.odUpdate(p, op, key)
	case core.Link:
		return s.linkOp(p, op, key)
	case core.TwoPhase:
		if op == workload.Search {
			return s.coupledSearch(p, key, always)
		}
		return s.coupledUpdate(p, op, key, always)
	case core.OLC:
		return s.olcOp(p, op, key)
	default:
		panic(fmt.Sprintf("sim: unknown algorithm %v", s.cfg.Algorithm))
	}
}

// lockOf returns (creating on demand) the lock guarding node n.
func (s *session) lockOf(n *btree.Node) *des.RWLock {
	if l, ok := s.locks[n]; ok {
		return l
	}
	l := des.NewRWLock(s.env, fmt.Sprintf("L%d", n.Level()))
	s.locks[n] = l
	s.lockOrder = append(s.lockOrder, l)
	s.lockLevel[l] = n.Level()
	return l
}

// work delays the process by an exponential variate with the given mean.
func (s *session) work(p *des.Proc, mean float64) {
	p.Delay(s.svc.Exp(mean))
}

// access delays the process by one node access at the given level. With a
// buffered cost model (per-level miss probabilities) the draw is bimodal:
// a buffer hit costs an in-memory access, a miss a disk access.
func (s *session) access(p *des.Proc, level int) {
	c := s.cfg.Costs
	if c.MissProb == nil {
		s.work(p, s.se(level))
		return
	}
	mean := c.SearchMem * c.Dilation
	if s.svc.Bernoulli(c.MissAt(level, s.h)) {
		mean *= c.DiskCost
	}
	p.Delay(s.svc.Exp(mean))
}

// Cost means, by node level of the initial tree.
func (s *session) se(level int) float64 { return s.cfg.Costs.Se(level, s.h) }
func (s *session) m() float64           { return s.cfg.Costs.M(s.h) }
func (s *session) mod(level int) float64 {
	return s.cfg.Costs.Mod(level, s.h)
}
func (s *session) sp(level int) float64 { return s.cfg.Costs.Sp(level, s.h) }
func (s *session) mg(level int) float64 { return s.cfg.Costs.Mg(level, s.h) }

// lockRoot acquires the current root's lock, re-checking that the node is
// still the root after the (possibly long) wait — a concurrent operation
// may have grown or shrunk the tree meanwhile. classOf is re-evaluated on
// each attempt, since the class can depend on whether the root is a leaf.
func (s *session) lockRoot(p *des.Proc, classOf func(*btree.Node) des.Class) (*btree.Node, *des.Grant) {
	for {
		root := s.tree.Root()
		g := s.lockOf(root).Acquire(p, classOf(root))
		if root == s.tree.Root() {
			return root, g
		}
		s.lockOf(root).Release(g)
	}
}

func readClass(*btree.Node) des.Class  { return des.Read }
func writeClass(*btree.Node) des.Class { return des.Write }
