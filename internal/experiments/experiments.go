// Package experiments regenerates every table and figure of the paper's
// evaluation (Figures 3–16). Each Figure couples the analytical model
// (internal/core) with the simulator (internal/sim) on the configuration
// the paper used and emits one table per figure: the same series the paper
// plots.
//
// The absolute numbers are in the paper's abstract time unit (root search
// = 1); what must reproduce is the shape — who wins, by what factor, and
// where the knees fall. EXPERIMENTS.md records the comparison.
package experiments

import (
	"fmt"
	"math"

	"btreeperf/internal/core"
	"btreeperf/internal/shape"
	"btreeperf/internal/sim"
	"btreeperf/internal/table"
	"btreeperf/internal/workload"
)

// Options scales an experiment run.
type Options struct {
	Seeds int  // replications per simulated point (paper: 5)
	Ops   int  // concurrent operations per replication (paper: 10,000)
	Quick bool // reduce sweeps for smoke runs and benchmarks
}

// Defaults fills the paper's settings for unset fields.
func (o Options) defaults() Options {
	if o.Seeds == 0 {
		o.Seeds = 5
	}
	if o.Ops == 0 {
		o.Ops = 10000
	}
	if o.Quick {
		if o.Seeds > 2 {
			o.Seeds = 2
		}
		if o.Ops > 2500 {
			o.Ops = 2500
		}
	}
	return o
}

// Figure is one reproducible experiment.
type Figure struct {
	ID      string
	Title   string
	Caption string
	Run     func(Options) (*table.Table, error)
}

// All returns every figure in order.
func All() []Figure {
	return []Figure{
		{"fig03", "Figure 3: Naive Lock-coupling insert response time vs. arrival rate",
			"disk cost=5, 2 in-memory levels, N=13, ~40k items; analysis vs. simulation", figCurve(core.NLC, workload.Insert)},
		{"fig04", "Figure 4: Naive Lock-coupling search response time vs. arrival rate",
			"disk cost=5, 2 in-memory levels; analysis vs. simulation", figCurve(core.NLC, workload.Search)},
		{"fig05", "Figure 5: Optimistic Descent insert response time vs. arrival rate",
			"disk cost=5, 2 in-memory levels; analysis vs. simulation", figCurve(core.OD, workload.Insert)},
		{"fig06", "Figure 6: Optimistic Descent search response time vs. arrival rate",
			"disk cost=5, 2 in-memory levels; analysis vs. simulation", figCurve(core.OD, workload.Search)},
		{"fig07", "Figure 7: Link-type insert response time vs. arrival rate",
			"disk cost=5, 2 in-memory levels; analysis vs. simulation", figCurve(core.Link, workload.Insert)},
		{"fig08", "Figure 8: Link-type search response time vs. arrival rate",
			"disk cost=5, 2 in-memory levels; analysis vs. simulation", figCurve(core.Link, workload.Search)},
		{"fig09", "Figure 9: Link-type algorithm at disk cost 10",
			"response times and link-crossing frequency (crossings are negligible)", fig9},
		{"fig10", "Figure 10: Increasing root writer utilization in Naive Lock-coupling",
			"ρ_w(root) grows non-linearly with the arrival rate", fig10},
		{"fig11", "Figure 11: Naive Lock-coupling maximum throughput vs. disk cost",
			"locking nodes two levels below the root dominates as D grows", fig11},
		{"fig12", "Figure 12: Comparison of insert response times",
			"Link-type ≫ Optimistic Descent ≫ Naive Lock-coupling; disk cost=5", fig12},
		{"fig13", "Figure 13: Naive Lock-coupling rule-of-thumb vs. model predictions",
			"λ_{ρ=.5} vs. maximum node size, D ∈ {1, 10}; rules of thumb 1 and 2", fig13},
		{"fig14", "Figure 14: Optimistic Descent rule-of-thumb vs. model predictions",
			"λ_{ρ=.5} vs. maximum node size, D ∈ {1, 10}; rules of thumb 3 and 4", fig14},
		{"fig15", "Figure 15: Comparison of recovery algorithms, node size 13",
			"Optimistic Descent insert response; D=10, T_trans=100, 5 levels", figRecovery(13, 5)},
		{"fig16", "Figure 16: Comparison of recovery algorithms, node size 59",
			"Optimistic Descent insert response; D=10, T_trans=100, 4 levels", figRecovery(59, 4)},
	}
}

// ByID finds a figure by its identifier: "fig03", "03" and "3" all match,
// as do the extra-experiment IDs ("extA", "extB").
func ByID(id string) (Figure, bool) {
	numeric := fmt.Sprintf("fig%02d", atoiSafe(id))
	for _, f := range append(All(), Extras()...) {
		if f.ID == id || f.ID == numeric {
			return f, true
		}
	}
	return Figure{}, false
}

func atoiSafe(s string) int {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// paperModel is the analytic model of the paper's baseline tree.
func paperModel(d float64) (core.Model, error) {
	s, err := shape.New(40000, 13, 0.5, 0.2)
	if err != nil {
		return core.Model{}, err
	}
	return core.Model{Shape: s, Costs: core.PaperCosts(d)}, nil
}

// sweep returns fractions of an algorithm's maximum throughput to sample.
func sweep(quick bool) []float64 {
	if quick {
		return []float64{0.2, 0.6, 0.9}
	}
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}
}

// respOf selects the response-time series for an operation class.
func respOf(res *core.Result, op workload.Op) float64 {
	switch op {
	case workload.Search:
		return res.RespSearch
	case workload.Insert:
		return res.RespInsert
	default:
		return res.RespDelete
	}
}

func simRespOf(rep *sim.Replicated, op workload.Op) (mean, ci float64) {
	switch op {
	case workload.Search:
		return rep.RespSearch.Mean, rep.RespSearch.CI95
	case workload.Insert:
		return rep.RespInsert.Mean, rep.RespInsert.CI95
	default:
		return rep.RespDelete.Mean, rep.RespDelete.CI95
	}
}

// simAt replicates the simulator at one operating point: the paper's
// configuration for algorithm a at arrival rate lambda and disk cost d,
// at o's run length, under seeds seeds. tune, when non-nil, moves the
// configuration off the paper's baseline first.
func (o Options) simAt(a core.Algorithm, lambda, d float64, seeds int, tune func(*sim.Config)) (*sim.Replicated, error) {
	cfg := sim.Paper(a, lambda, d)
	cfg.Ops = o.Ops
	cfg.Warmup = o.Ops / 10
	if tune != nil {
		tune(&cfg)
	}
	return sim.RunSeeds(cfg, sim.DefaultSeeds(seeds))
}

// sweepTable fills tb with one row per sweep point. Points run
// concurrently under the sim worker pool; rows are collected by point
// index, so the table is identical at any worker count.
func sweepTable(tb *table.Table, points int, row func(i int) ([]string, error)) (*table.Table, error) {
	rows := make([][]string, points)
	err := sim.ForEachPoint(points, func(i int) (err error) {
		rows[i], err = row(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		tb.AddRow(r...)
	}
	return tb, nil
}

// orUnstable is the simulated cell of a point: the value, or "unstable"
// when a replication outgrew its operation space.
func orUnstable(rep *sim.Replicated, v float64) string {
	if rep.Unstable {
		return "unstable"
	}
	return table.F(v)
}

// figCurve is the analysis-vs-simulation response curve of Figures 3–8:
// algorithm a's response time for op at disk cost 5, over fractions of
// the algorithm's maximum throughput.
func figCurve(a core.Algorithm, op workload.Op) func(Options) (*table.Table, error) {
	return func(o Options) (*table.Table, error) {
		o = o.defaults()
		const d = 5
		m, err := paperModel(d)
		if err != nil {
			return nil, err
		}
		lambdas, err := lambdaSweepFor(a, d, o.Quick)
		if err != nil {
			return nil, err
		}
		tb := table.New("",
			"lambda", "model_resp", "sim_resp", "sim_ci95", "model_rho_w", "sim_rho_w", "stable")
		return sweepTable(tb, len(lambdas), func(i int) ([]string, error) {
			lambda := lambdas[i]
			res, err := core.Analyze(a, m, core.Workload{Lambda: lambda, Mix: workload.PaperMix})
			if err != nil {
				return nil, err
			}
			rep, err := o.simAt(a, lambda, d, o.Seeds, nil)
			if err != nil {
				return nil, err
			}
			simResp, simCI := simRespOf(rep, op)
			stable := "yes"
			if !res.Stable || rep.Unstable {
				stable = "no"
			}
			return []string{table.F(lambda), table.F(respOf(res, op)), table.F(simResp),
				table.F(simCI), table.F(res.RootRhoW()), table.F(rep.RootRhoW.Mean), stable}, nil
		})
	}
}

// lambdaSweepFor finds the λ values to sample for an algorithm.
func lambdaSweepFor(a core.Algorithm, d float64, quick bool) ([]float64, error) {
	m, err := paperModel(d)
	if err != nil {
		return nil, err
	}
	lmax, err := core.MaxThroughput(a, m, core.Workload{Mix: workload.PaperMix}, 1e-4)
	if err != nil {
		return nil, err
	}
	if math.IsInf(lmax, 1) || lmax > 60 {
		lmax = 60 // Link-type: effectively unbounded; sample a wide range
	}
	var out []float64
	for _, f := range sweep(quick) {
		out = append(out, f*lmax)
	}
	return out, nil
}

// fig9: Link-type at disk cost 10 with the link-crossing rate.
func fig9(o Options) (*table.Table, error) {
	o = o.defaults()
	m, err := paperModel(10)
	if err != nil {
		return nil, err
	}
	lambdas, err := lambdaSweepFor(core.Link, 10, o.Quick)
	if err != nil {
		return nil, err
	}
	tb := table.New("",
		"lambda", "model_search", "sim_search", "model_insert", "sim_insert", "crossings_per_op")
	return sweepTable(tb, len(lambdas), func(i int) ([]string, error) {
		lambda := lambdas[i]
		res, err := core.AnalyzeLink(m, core.Workload{Lambda: lambda, Mix: workload.PaperMix})
		if err != nil {
			return nil, err
		}
		rep, err := o.simAt(core.Link, lambda, 10, o.Seeds, nil)
		if err != nil {
			return nil, err
		}
		var crossings, completed float64
		for _, r := range rep.Results {
			crossings += float64(r.LinkCrossings)
			completed += float64(r.Completed)
		}
		return []string{table.F(lambda), table.F(res.RespSearch), table.F(rep.RespSearch.Mean),
			table.F(res.RespInsert), table.F(rep.RespInsert.Mean), table.F(crossings / completed)}, nil
	})
}

// fig10: NLC root writer utilization vs arrival rate.
func fig10(o Options) (*table.Table, error) {
	o = o.defaults()
	m, err := paperModel(5)
	if err != nil {
		return nil, err
	}
	lambdas, err := lambdaSweepFor(core.NLC, 5, o.Quick)
	if err != nil {
		return nil, err
	}
	tb := table.New("", "lambda", "model_rho_w", "sim_rho_w", "sim_ci95")
	return sweepTable(tb, len(lambdas), func(i int) ([]string, error) {
		lambda := lambdas[i]
		res, err := core.AnalyzeNLC(m, core.Workload{Lambda: lambda, Mix: workload.PaperMix})
		if err != nil {
			return nil, err
		}
		rep, err := o.simAt(core.NLC, lambda, 5, o.Seeds, nil)
		if err != nil {
			return nil, err
		}
		return []string{table.F(lambda), table.F(res.RootRhoW()),
			table.F(rep.RootRhoW.Mean), table.F(rep.RootRhoW.CI95)}, nil
	})
}

// fig11: NLC maximum throughput vs disk cost.
func fig11(o Options) (*table.Table, error) {
	o = o.defaults()
	ds := []float64{1, 2, 5, 10, 20}
	if o.Quick {
		ds = []float64{1, 5, 20}
	}
	tb := table.New("", "disk_cost", "max_throughput", "effective_max_rho_0.5")
	for _, d := range ds {
		m, err := paperModel(d)
		if err != nil {
			return nil, err
		}
		mix := core.Workload{Mix: workload.PaperMix}
		lmax, err := core.MaxThroughput(core.NLC, m, mix, 1e-4)
		if err != nil {
			return nil, err
		}
		l50, err := core.EffectiveMaxThroughput(core.NLC, m, mix, 0.5, 1e-4)
		if err != nil {
			return nil, err
		}
		tb.AddRow(table.F(d), table.F(lmax), table.F(l50))
	}
	return tb, nil
}

// fig12: the three algorithms' insert response times on a shared λ axis.
func fig12(o Options) (*table.Table, error) {
	o = o.defaults()
	m, err := paperModel(5)
	if err != nil {
		return nil, err
	}
	mix := core.Workload{Mix: workload.PaperMix}
	nlcMax, err := core.MaxThroughput(core.NLC, m, mix, 1e-4)
	if err != nil {
		return nil, err
	}
	odMax, err := core.MaxThroughput(core.OD, m, mix, 1e-4)
	if err != nil {
		return nil, err
	}
	// Shared axis covering both knees.
	var lambdas []float64
	for _, f := range sweep(o.Quick) {
		lambdas = append(lambdas, f*nlcMax)
	}
	if !o.Quick {
		for _, f := range []float64{0.3, 0.6, 0.9} {
			lambdas = append(lambdas, f*odMax)
		}
	}
	tb := table.New("", "lambda", "nlc_model", "od_model", "link_model", "nlc_sim", "od_sim", "link_sim")
	algs := []core.Algorithm{core.NLC, core.OD, core.Link}
	return sweepTable(tb, len(lambdas), func(i int) ([]string, error) {
		lambda := lambdas[i]
		row := []string{table.F(lambda)}
		sims := make([]string, len(algs))
		for ai, a := range algs {
			res, err := core.Analyze(a, m, core.Workload{Lambda: lambda, Mix: workload.PaperMix})
			if err != nil {
				return nil, err
			}
			row = append(row, table.F(res.RespInsert))
			sims[ai] = "unstable"
			if res.Stable {
				rep, err := o.simAt(a, lambda, 5, min(o.Seeds, 2), nil)
				if err != nil {
					return nil, err
				}
				sims[ai] = orUnstable(rep, rep.RespInsert.Mean)
			}
		}
		return append(row, sims...), nil
	})
}

// ruleFigure runs the Figure 13/14 sweeps over node size and disk cost.
func ruleFigure(a core.Algorithm,
	rot func(core.Model, core.Workload) (float64, error),
	limit func(core.Model, core.Workload) (float64, error)) func(Options) (*table.Table, error) {
	return func(o Options) (*table.Table, error) {
		o = o.defaults()
		sizes := []int{7, 13, 29, 59, 101, 201}
		if o.Quick {
			sizes = []int{13, 59, 201}
		}
		tb := table.New("", "disk_cost", "node_size", "model_lambda_.5", "rule_of_thumb", "limit_rule")
		for _, d := range []float64{1, 10} {
			for _, n := range sizes {
				s, err := shape.NewWithHeight(5, n, 6, 0.5, 0.2)
				if err != nil {
					return nil, err
				}
				m := core.Model{Shape: s, Costs: core.PaperCosts(d)}
				mix := core.Workload{Mix: workload.PaperMix}
				full, err := core.EffectiveMaxThroughput(a, m, mix, 0.5, 1e-5)
				if err != nil {
					return nil, err
				}
				r, err := rot(m, mix)
				if err != nil {
					return nil, err
				}
				l, err := limit(m, mix)
				if err != nil {
					return nil, err
				}
				tb.AddRow(table.F(d), fmt.Sprint(n), table.F(full), table.F(r), table.F(l))
			}
		}
		return tb, nil
	}
}

func fig13(o Options) (*table.Table, error) {
	return ruleFigure(core.NLC, core.RuleOfThumb1, core.RuleOfThumb2)(o)
}

func fig14(o Options) (*table.Table, error) {
	return ruleFigure(core.OD, core.RuleOfThumb3, core.RuleOfThumb4)(o)
}

// figRecovery runs the Figure 15/16 recovery comparison.
func figRecovery(nodeSize, height int) func(Options) (*table.Table, error) {
	return func(o Options) (*table.Table, error) {
		o = o.defaults()
		const d = 10
		const ttrans = 100
		s, err := shape.NewWithHeight(height, nodeSize, 6, 0.5, 0.2)
		if err != nil {
			return nil, err
		}
		m := core.Model{Shape: s, Costs: core.PaperCosts(d)}
		mix := core.Workload{Mix: workload.PaperMix}
		// Sweep relative to the Naive recovery variant's saturation, the
		// earliest of the three.
		naiveMax, err := core.MaxThroughputOD(m, mix, core.ODOptions{Recovery: core.NaiveRecovery, TTrans: ttrans}, 1e-4)
		if err != nil {
			return nil, err
		}
		tb := table.New("",
			"lambda", "none_model", "leaf_model", "naive_model", "none_sim", "leaf_sim", "naive_sim")
		fracs := sweep(o.Quick)
		opts := []core.ODOptions{
			{Recovery: core.NoRecovery},
			{Recovery: core.LeafOnly, TTrans: ttrans},
			{Recovery: core.NaiveRecovery, TTrans: ttrans},
		}
		return sweepTable(tb, len(fracs), func(i int) ([]string, error) {
			lambda := fracs[i] * naiveMax
			row := []string{table.F(lambda)}
			for _, op := range opts {
				res, err := core.AnalyzeOD(m, core.Workload{Lambda: lambda, Mix: workload.PaperMix}, op)
				if err != nil {
					return nil, err
				}
				row = append(row, table.F(res.RespInsert))
			}
			for _, op := range opts {
				rep, err := o.simAt(core.OD, lambda, d, min(o.Seeds, 3), func(cfg *sim.Config) {
					cfg.NodeCap, cfg.InitialItems = nodeSize, s.Items
					cfg.Recovery, cfg.TTrans = op.Recovery, op.TTrans
				})
				if err != nil {
					return nil, err
				}
				row = append(row, orUnstable(rep, rep.RespInsert.Mean))
			}
			return row, nil
		})
	}
}
