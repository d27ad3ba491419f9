package sim

import (
	"math"
	"testing"

	"btreeperf/internal/core"
	"btreeperf/internal/workload"
)

// smallCfg is a scaled-down configuration that runs fast in tests: a
// 4,000-item tree at N=13 (4 levels) with 2,000 concurrent operations.
func smallCfg(a core.Algorithm, lambda float64) Config {
	cfg := Paper(a, lambda, 5)
	cfg.InitialItems = 4000
	cfg.Ops = 2000
	cfg.Warmup = 200
	return cfg
}

func TestValidate(t *testing.T) {
	good := Paper(core.NLC, 0.01, 5)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.NodeCap = 2 },
		func(c *Config) { c.InitialItems = 0 },
		func(c *Config) { c.Lambda = 0 },
		func(c *Config) { c.Ops = 0 },
		func(c *Config) { c.Warmup = c.Ops },
		func(c *Config) { c.TTrans = -1 },
		func(c *Config) { c.Mix = workload.Mix{QS: 1, QI: 1, QD: 1} },
	}
	for i, mutate := range bad {
		c := Paper(core.NLC, 0.01, 5)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRunCompletesAndIsConsistent(t *testing.T) {
	for _, a := range []core.Algorithm{core.NLC, core.OD, core.Link, core.OLC} {
		t.Run(a.String(), func(t *testing.T) {
			cfg := smallCfg(a, 0.01)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Unstable {
				t.Fatal("low load reported unstable")
			}
			if res.Completed != cfg.Ops {
				t.Fatalf("completed %d of %d", res.Completed, cfg.Ops)
			}
			if res.Measured != cfg.Ops-cfg.Warmup {
				t.Fatalf("measured %d", res.Measured)
			}
			if res.RespSearch.Mean <= 0 || res.RespInsert.Mean <= 0 {
				t.Fatalf("non-positive responses: %+v %+v", res.RespSearch, res.RespInsert)
			}
			if res.Duration <= 0 {
				t.Fatal("no virtual time elapsed")
			}
			if len(res.LevelWaits) != res.TreeHeight && len(res.LevelWaits) < 4 {
				t.Fatalf("level waits: %d levels", len(res.LevelWaits))
			}
		})
	}
}

func TestTreeInvariantsSurviveConcurrency(t *testing.T) {
	// After thousands of concurrent operations under each algorithm, the
	// tree must still be structurally perfect. (Link-type leaves empty
	// leaves in place, which merge-at-empty invariants allow.)
	for _, a := range []core.Algorithm{core.NLC, core.OD, core.Link, core.OLC} {
		t.Run(a.String(), func(t *testing.T) {
			cfg := smallCfg(a, 0.05) // contended
			cfg.MaxInFlight = 100000
			s, err := runForTree(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.tree.CheckInvariants(); err != nil {
				t.Fatalf("tree corrupted: %v", err)
			}
		})
	}
}

// runForTree runs a simulation, returning the internal session so tests
// can inspect the final tree.
func runForTree(cfg Config) (*session, error) {
	return runCapture(cfg)
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := smallCfg(core.NLC, 0.02)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.RespInsert.Mean != b.RespInsert.Mean || a.Duration != b.Duration ||
		a.RootRhoW != b.RootRhoW || a.Splits != b.Splits {
		t.Fatalf("runs with identical seeds differ: %+v vs %+v", a, b)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := smallCfg(core.NLC, 0.02)
	a, _ := Run(cfg)
	cfg.Seed = 2
	b, _ := Run(cfg)
	if a.RespInsert.Mean == b.RespInsert.Mean {
		t.Fatal("different seeds produced identical response times")
	}
}

func TestResponseGrowsWithLoad(t *testing.T) {
	cfg1 := smallCfg(core.NLC, 0.005)
	cfg2 := smallCfg(core.NLC, 0.04)
	r1, err := Run(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.RespInsert.Mean <= r1.RespInsert.Mean {
		t.Fatalf("insert response did not grow with load: %v vs %v",
			r1.RespInsert.Mean, r2.RespInsert.Mean)
	}
	if r2.RootRhoW <= r1.RootRhoW {
		t.Fatalf("root ρ_w did not grow with load: %v vs %v", r1.RootRhoW, r2.RootRhoW)
	}
}

func TestNLCSaturationDetected(t *testing.T) {
	cfg := smallCfg(core.NLC, 1.0) // far beyond NLC's capacity
	cfg.MaxInFlight = 300
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unstable {
		t.Fatal("overload not detected")
	}
	if res.Completed >= cfg.Ops {
		t.Fatal("unstable run completed all operations")
	}
}

func TestLinkSustainsLoadThatSaturatesNLC(t *testing.T) {
	// The core of Figure 12: a load far beyond NLC's maximum is easy for
	// the Link-type algorithm.
	lambda := 1.0
	nlcCfg := smallCfg(core.NLC, lambda)
	nlcCfg.MaxInFlight = 500
	linkCfg := smallCfg(core.Link, lambda)
	linkCfg.MaxInFlight = 500
	nlcRes, err := Run(nlcCfg)
	if err != nil {
		t.Fatal(err)
	}
	linkRes, err := Run(linkCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !nlcRes.Unstable {
		t.Error("NLC carried a load it should not")
	}
	if linkRes.Unstable {
		t.Error("Link-type failed a load it should carry")
	}
}

func TestODRestartsMatchSplitProbability(t *testing.T) {
	// Redo rate ≈ q_i·Pr[F(1)] of update operations reaching an unsafe
	// leaf. With N=13 and the paper mix, Pr[F(1)] ≈ 0.068.
	cfg := smallCfg(core.OD, 0.01)
	cfg.Ops = 4000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	updates := float64(cfg.Ops) * (cfg.Mix.QI + cfg.Mix.QD)
	rate := float64(res.Restarts) / updates
	// Inserts restart on full leaves; deletes on 1-item leaves (rare).
	if rate < 0.015 || rate > 0.15 {
		t.Errorf("restart rate %v outside plausible range", rate)
	}
}

func TestLinkCrossingsAreRare(t *testing.T) {
	// Figure 9's observation: link chases are negligible.
	cfg := smallCfg(core.Link, 0.1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perOp := float64(res.LinkCrossings) / float64(res.Completed)
	if perOp > 0.05 {
		t.Errorf("link crossings per op = %v, expected ≪ 1", perOp)
	}
}

func TestSearchResponseMatchesSerialCostAtLowLoad(t *testing.T) {
	// At vanishing load the mean search response approaches Σ Se(i):
	// 4-level tree, 2 in-memory levels, D=5 → 5+5+1+1 = 12.
	cfg := smallCfg(core.NLC, 0.001)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TreeHeight != 4 {
		t.Fatalf("tree height %d, want 4", res.TreeHeight)
	}
	want := 12.0
	if math.Abs(res.RespSearch.Mean-want) > 1.0 {
		t.Errorf("search response %v, want ≈%v", res.RespSearch.Mean, want)
	}
}

func TestRecoveryVariantsRankInSimulation(t *testing.T) {
	// §7 in simulation: naive recovery's responses exceed leaf-only's,
	// which exceed no-recovery's, at a moderate load.
	base := smallCfg(core.OD, 0.02)
	base.TTrans = 100
	base.MaxInFlight = 100000

	responses := map[core.RecoveryPolicy]float64{}
	for _, rec := range []core.RecoveryPolicy{core.NoRecovery, core.LeafOnly, core.NaiveRecovery} {
		cfg := base
		cfg.Recovery = rec
		if rec == core.NoRecovery {
			cfg.TTrans = 0
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Unstable {
			t.Fatalf("%v unstable at test load", rec)
		}
		responses[rec] = res.RespInsert.Mean
	}
	if !(responses[core.LeafOnly] > responses[core.NoRecovery]) {
		t.Errorf("leaf-only %v should exceed none %v",
			responses[core.LeafOnly], responses[core.NoRecovery])
	}
	if !(responses[core.NaiveRecovery] >= responses[core.LeafOnly]) {
		t.Errorf("naive %v should be ≥ leaf-only %v",
			responses[core.NaiveRecovery], responses[core.LeafOnly])
	}
}

func TestRunSeeds(t *testing.T) {
	cfg := smallCfg(core.Link, 0.02)
	cfg.Ops = 800
	cfg.Warmup = 100
	rep, err := RunSeeds(cfg, DefaultSeeds(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("%d results", len(rep.Results))
	}
	if rep.RespInsert.N != 3 || rep.RespInsert.Mean <= 0 {
		t.Fatalf("bad aggregate: %+v", rep.RespInsert)
	}
	if rep.RespMean() <= 0 {
		t.Fatal("RespMean")
	}
	if _, err := RunSeeds(cfg, nil); err == nil {
		t.Fatal("empty seeds accepted")
	}
}

func TestContentsSurviveConcurrency(t *testing.T) {
	// All keys reported as present at the end must actually be findable
	// sequentially; checked via the invariant checker plus a sample of
	// searches on the final tree.
	cfg := smallCfg(core.Link, 0.05)
	s, err := runCapture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	found := 0
	s.tree.Range(0, 1<<31, func(int64, uint64) bool { found++; return true })
	if found != s.tree.Len() {
		t.Fatalf("Range saw %d keys, Len = %d", found, s.tree.Len())
	}
}

func TestPercentilesOrdered(t *testing.T) {
	res, err := Run(smallCfg(core.NLC, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Percentiles
	if !(p.P50 > 0 && p.P50 <= p.P90 && p.P90 <= p.P95 && p.P95 <= p.P99 && p.P99 <= p.Max) {
		t.Fatalf("percentiles out of order: %+v", p)
	}
	// The median sits near the mix-weighted mean at moderate load.
	if p.P50 > 3*res.RespMean() {
		t.Fatalf("median %v vs mean %v", p.P50, res.RespMean())
	}
}

func TestPercentilesGrowWithLoad(t *testing.T) {
	low, err := Run(smallCfg(core.NLC, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(smallCfg(core.NLC, 0.55))
	if err != nil {
		t.Fatal(err)
	}
	if high.Percentiles.P50 <= low.Percentiles.P50 ||
		high.Percentiles.P99 <= low.Percentiles.P99 {
		t.Fatalf("percentiles did not grow with load: %+v vs %+v",
			low.Percentiles, high.Percentiles)
	}
	// Contention spreads the distribution: near saturation the p99 is far
	// above the median.
	if high.Percentiles.P99 < 2*high.Percentiles.P50 {
		t.Fatalf("no dispersion near saturation: %+v", high.Percentiles)
	}
}

// Two restructuring paths that no figure's configuration reaches, because
// the paper's trees are large and grow: a lock-coupling delete that
// empties a leaf and removes it from its parent, and a Link-type split
// whose ancestor stack ran out because the root grew during the ascent,
// so the parent has to be located from the new root. Tiny nodes on a tiny
// tree force both; the run is deterministic.
func TestRestructuringOffTheFigures(t *testing.T) {
	t.Run("merge-at-empty under lock-coupling", func(t *testing.T) {
		cfg := Paper(core.NLC, 0.5, 1)
		cfg.NodeCap, cfg.InitialItems = 3, 60
		cfg.Mix = workload.Mix{QS: 0.05, QI: 0.5, QD: 0.45}
		cfg.Ops, cfg.Warmup = 400, 10
		s, err := runCapture(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.tree.CheckInvariants(); err != nil {
			t.Fatalf("tree corrupted: %v", err)
		}
		if s.tree.Stats().Removes == 0 {
			t.Fatal("no leaf was emptied and removed: the merge path did not run")
		}
	})
	t.Run("link-type repair after the root grew", func(t *testing.T) {
		cfg := Paper(core.Link, 3, 1)
		cfg.NodeCap, cfg.InitialItems = 3, 2
		cfg.Mix = workload.Mix{QI: 1}
		cfg.Ops, cfg.Warmup = 400, 10
		s, err := runCapture(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.tree.CheckInvariants(); err != nil {
			t.Fatalf("tree corrupted: %v", err)
		}
		// Every insert arrived while the tree was a leaf or two; the
		// height they left behind was built by concurrent ascents.
		if s.tree.Height() < 5 || s.tree.Len() < cfg.Ops/2 {
			t.Fatalf("height %d, %d keys: the concurrent inserts did not grow the tree", s.tree.Height(), s.tree.Len())
		}
	})
}
