package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"btreeperf/internal/btree"
	"btreeperf/internal/core"
	"btreeperf/internal/diskbtree"
	"btreeperf/internal/shape"
	"btreeperf/internal/sim"
	"btreeperf/internal/table"
	"btreeperf/internal/workload"
	"btreeperf/internal/xrand"
)

// Extras returns experiments beyond the paper's figures: the §3.2
// merge-policy justification and the Two-Phase Locking extension the paper
// defers to its full version.
func Extras() []Figure {
	return []Figure{
		{"extA", "Extra A: merge-at-empty vs. merge-at-half restructuring rates",
			"the §3.2 design choice, after Johnson & Shasha [9,10]: restructuring events per 1000 operations while maintaining a 40k-item tree", extMergePolicy},
		{"extB", "Extra B: Two-Phase Locking vs. the paper's algorithms",
			"the extension deferred to the paper's full version: maximum throughputs and insert responses near 2PL's saturation", extTwoPhase},
		{"extC", "Extra C: LRU buffering (the §8 extension)",
			"maximum throughput vs. buffer-pool size at raw disk cost D=10; model hit ratio plus a simulator point per pool size", extBuffering},
		{"extD", "Extra D: access skew and the buffer pool",
			"measured LRU hit ratios of the disk-backed tree under uniform vs. self-similar key popularity; the uniform-shape model is the skew-free baseline", extSkew},
		{"extE", "Extra E: OLC restart model vs. simulation",
			"the fourth algorithm: optimistic lock-coupling's predicted restart and fallback rates (writer-utilization conflicts, correlated retries) against the simulator's measured rates, with search responses", extOLC},
	}
}

// extOLC validates the fourth algorithm's restart-probability model: per
// load, the analytical restarts-per-operation and fallback probability
// next to the simulator's measured rates, plus both search responses.
func extOLC(o Options) (*table.Table, error) {
	o = o.defaults()
	m, err := paperModel(5)
	if err != nil {
		return nil, err
	}
	// The top load sits near the simulator's own saturation; short quick
	// runs have not converged there (contention is still building when
	// the run ends), so quick mode stays on the two lower loads.
	lambdas := []float64{5, 10, 25}
	if o.Quick {
		lambdas = []float64{5, 10}
	}
	tb := table.New("",
		"lambda", "model_restarts_per_op", "sim_restarts_per_op",
		"model_fallback_prob", "sim_fallback_per_op",
		"model_search", "sim_search")
	return sweepTable(tb, len(lambdas), func(i int) ([]string, error) {
		lambda := lambdas[i]
		res, err := core.AnalyzeOLC(m, core.Workload{Lambda: lambda, Mix: workload.PaperMix})
		if err != nil {
			return nil, err
		}
		rep, err := o.simAt(core.OLC, lambda, 5, min(o.Seeds, 3), nil)
		if err != nil {
			return nil, err
		}
		var restarts, fallbacks, completed int64
		for _, r := range rep.Results {
			restarts += r.ReadRestarts
			fallbacks += r.ReadFallbacks
			completed += int64(r.Completed)
		}
		return []string{table.F(lambda),
			table.F(res.RestartsPerOp), table.F(float64(restarts) / float64(completed)),
			table.F(res.FallbackProb), table.F(float64(fallbacks) / float64(completed)),
			table.F(res.RespSearch), orUnstable(rep, rep.RespSearch.Mean)}, nil
	})
}

// extSkew measures the real LRU pool of internal/diskbtree under
// increasingly skewed search popularity. The analytical buffer model
// assumes uniform access within a level, so it is exact for the uniform
// row and a lower bound under skew (LRU exploits hot keys the shape model
// cannot see).
func extSkew(o Options) (*table.Table, error) {
	o = o.defaults()
	const items = 20000
	const nodeCap = 32
	const poolNodes = 64
	searches := 60000
	if o.Quick {
		searches = 20000
	}

	dir, err := os.MkdirTemp("", "btreeperf-extD")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	s, err := shape.New(items, nodeCap, 1, 0)
	if err != nil {
		return nil, err
	}
	costs, err := core.BufferedCosts(s, poolNodes, core.PaperCosts(10))
	if err != nil {
		return nil, err
	}
	modelHit := core.ExpectedHitRatio(s, costs)

	tb := table.New("", "popularity", "measured_hit_ratio", "uniform_model")
	dists := []struct {
		name string
		hot  float64 // 0.5 = uniform
	}{
		{"uniform", 0.5},
		{"80/20", 0.2},
		{"95/5", 0.05},
	}
	for di, dist := range dists {
		tr, err := diskbtree.Open(filepath.Join(dir, fmt.Sprintf("d%d.db", di)),
			diskbtree.Options{Cap: nodeCap, CacheNodes: poolNodes})
		if err != nil {
			return nil, err
		}
		src := xrand.New(71)
		keys := make([]int64, 0, items)
		for len(keys) < items {
			k := src.Int63n(1 << 30)
			if fresh, err := tr.Insert(k, 1); err != nil {
				tr.Close()
				return nil, err
			} else if fresh {
				keys = append(keys, k)
			}
		}
		reads := xrand.New(73)
		// Warm, then measure.
		for i := 0; i < searches/3; i++ {
			tr.Search(keys[reads.SelfSimilar(len(keys), dist.hot)])
		}
		before := tr.CacheStats()
		for i := 0; i < searches; i++ {
			tr.Search(keys[reads.SelfSimilar(len(keys), dist.hot)])
		}
		after := tr.CacheStats()
		hits := after.Hits - before.Hits
		misses := after.Misses - before.Misses
		measured := float64(hits) / float64(hits+misses)
		tb.AddRow(dist.name, table.F(measured), table.F(modelHit))
		tr.Close()
	}
	return tb, nil
}

// extBuffering sweeps the buffer-pool size, replacing the paper's sharp
// "2 levels in memory" assumption with the LRU model of core.BufferedCosts.
func extBuffering(o Options) (*table.Table, error) {
	o = o.defaults()
	s, err := shape.New(40000, 13, 0.5, 0.2)
	if err != nil {
		return nil, err
	}
	base := core.PaperCosts(10)
	base.MemLevels = 0 // the pool, not a level rule, decides residency
	mix := core.Workload{Mix: workload.PaperMix}
	pools := []float64{0, 7, 70, 600, 5000}
	if o.Quick {
		pools = []float64{0, 70, 5000}
	}
	tb := table.New("",
		"pool_nodes", "hit_ratio", "nlc_max", "od_max", "model_search@0.1", "sim_search@0.1")
	return sweepTable(tb, len(pools), func(i int) ([]string, error) {
		pool := pools[i]
		costs, err := core.BufferedCosts(s, pool, base)
		if err != nil {
			return nil, err
		}
		m := core.Model{Shape: s, Costs: costs}
		nlcMax, err := core.MaxThroughput(core.NLC, m, mix, 1e-4)
		if err != nil {
			return nil, err
		}
		odMax, err := core.MaxThroughput(core.OD, m, mix, 1e-4)
		if err != nil {
			return nil, err
		}
		res, err := core.AnalyzeNLC(m, core.Workload{Lambda: 0.1, Mix: workload.PaperMix})
		if err != nil {
			return nil, err
		}
		rep, err := o.simAt(core.NLC, 0.1, 10, min(o.Seeds, 2), func(cfg *sim.Config) { cfg.Costs = costs })
		if err != nil {
			return nil, err
		}
		modelCell := table.F(res.RespSearch)
		if !res.Stable {
			modelCell = "unstable"
		}
		return []string{table.F(pool), table.F(core.ExpectedHitRatio(s, costs)),
			table.F(nlcMax), table.F(odMax), modelCell, orUnstable(rep, rep.RespSearch.Mean)}, nil
	})
}

// extMergePolicy measures restructuring rates of the two policies under
// steady-state mixes with varying delete shares.
func extMergePolicy(o Options) (*table.Table, error) {
	o = o.defaults()
	ops := 60000
	if o.Quick {
		ops = 20000
	}
	tb := table.New("", "insert_frac", "delete_frac",
		"empty_restr_per_1k", "half_restr_per_1k", "empty_util", "half_util")
	mixes := []struct{ qi, qd float64 }{
		{0.9, 0.1}, {0.7, 0.3}, {0.55, 0.45},
	}
	for _, mx := range mixes {
		var restr [2]float64
		var util [2]float64
		for pi, policy := range []btree.Policy{btree.MergeAtEmpty, btree.MergeAtHalf} {
			tr := btree.New(13, policy)
			src := xrand.New(uint64(pi)*131 + uint64(mx.qi*100))
			pool := workload.NewKeyPool()
			// Grow to steady-state size.
			for tr.Len() < 40000 {
				k := src.Int63n(1 << 31)
				if tr.Insert(k, 0) {
					pool.Add(k)
				}
			}
			base := tr.Stats()
			// Churn with the mix, deletes targeting live keys.
			for i := 0; i < ops; i++ {
				if src.Float64() < mx.qi || pool.Len() == 0 {
					k := src.Int63n(1 << 31)
					if tr.Insert(k, 0) {
						pool.Add(k)
					}
				} else if k, ok := pool.Take(src); ok {
					tr.Delete(k)
				}
			}
			st := tr.Stats()
			events := (st.Splits - base.Splits) + (st.Removes - base.Removes) +
				(st.Merges - base.Merges) + (st.Borrows - base.Borrows)
			restr[pi] = float64(events) / float64(ops) * 1000
			stats := tr.StructureStats()
			util[pi] = stats[0].Util
		}
		tb.AddRow(table.F(mx.qi), table.F(mx.qd),
			table.F(restr[0]), table.F(restr[1]), table.F(util[0]), table.F(util[1]))
	}
	return tb, nil
}

// extTwoPhase compares 2PL against the paper's three algorithms.
func extTwoPhase(o Options) (*table.Table, error) {
	o = o.defaults()
	m, err := paperModel(5)
	if err != nil {
		return nil, err
	}
	mix := core.Workload{Mix: workload.PaperMix}
	algs := []core.Algorithm{core.TwoPhase, core.NLC, core.OD, core.Link}

	tpMax, err := core.MaxThroughput(core.TwoPhase, m, mix, 1e-4)
	if err != nil {
		return nil, err
	}
	tb := table.New("", "metric", "two_phase", "nlc", "od", "link")

	row := []string{"max_throughput"}
	for _, a := range algs {
		lmax, err := core.MaxThroughput(a, m, mix, 1e-4)
		if err != nil {
			return nil, err
		}
		row = append(row, table.F(lmax))
	}
	tb.AddRow(row...)

	lambda := 0.9 * tpMax
	row = []string{fmt.Sprintf("model_insert@λ=%s", table.F(lambda))}
	for _, a := range algs {
		res, err := core.Analyze(a, m, core.Workload{Lambda: lambda, Mix: workload.PaperMix})
		if err != nil {
			return nil, err
		}
		row = append(row, table.F(res.RespInsert))
	}
	tb.AddRow(row...)

	cells := make([]string, len(algs))
	err = sim.ForEachPoint(len(algs), func(i int) error {
		rep, err := o.simAt(algs[i], lambda, 5, min(o.Seeds, 3), nil)
		if err != nil {
			return err
		}
		cells[i] = orUnstable(rep, rep.RespInsert.Mean)
		return nil
	})
	if err != nil {
		return nil, err
	}
	row = append([]string{fmt.Sprintf("sim_insert@λ=%s", table.F(lambda))}, cells...)
	tb.AddRow(row...)
	return tb, nil
}
