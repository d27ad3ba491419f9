// Command btmodel evaluates the analytical framework: given a tree shape,
// a cost model and a workload, it prints the per-level queue solution, the
// operation response times, the maximum and effective-maximum throughputs
// and the §6 rules of thumb.
//
// Examples:
//
//	btmodel -alg nlc -lambda 0.3
//	btmodel -alg od -nodecap 59 -height 4 -disk 10 -recovery naive -ttrans 100 -lambda 0.05
//	btmodel -alg link -lambda 10 -items 1000000
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"btreeperf/internal/core"
	"btreeperf/internal/shape"
	"btreeperf/internal/sim"
	"btreeperf/internal/table"
	"btreeperf/internal/workload"
)

func main() {
	var (
		algName    = flag.String("alg", "nlc", "algorithm: nlc, od, link, 2pl, olc")
		items      = flag.Int("items", 40000, "keys in the tree")
		nodeCap    = flag.Int("nodecap", 13, "maximum items per node (N)")
		height     = flag.Int("height", 0, "force tree height (0 = derive from items)")
		rootFanout = flag.Float64("rootfanout", 6, "root fanout when -height is forced")
		disk       = flag.Float64("disk", 5, "on-disk access cost multiplier (D)")
		memLevels  = flag.Int("mem", 2, "top levels held in memory")
		qs         = flag.Float64("qs", 0.3, "search fraction")
		qi         = flag.Float64("qi", 0.5, "insert fraction")
		qd         = flag.Float64("qd", 0.2, "delete fraction")
		lambda     = flag.Float64("lambda", 0.1, "total arrival rate")
		recovery   = flag.String("recovery", "none", "recovery protocol: none, leaf, naive (od only)")
		ttrans     = flag.Float64("ttrans", 100, "transaction commit delay for recovery")
		buffer     = flag.Float64("buffer", -1, "LRU buffer pool size in nodes (replaces -mem; -1 disables)")
		simSeeds   = flag.Int("simulate", 0, "cross-check the point with N simulator replications (0 = model only)")
		simOps     = flag.Int("simops", 10000, "operations per cross-check replication")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"replication worker pool size for -simulate (1 = sequential; results are identical either way)")
	)
	flag.Parse()
	sim.SetParallelism(*parallel)

	alg, err := core.ParseAlgorithm(*algName)
	check(err)
	var sh *shape.Model
	if *height > 0 {
		sh, err = shape.NewWithHeight(*height, *nodeCap, *rootFanout, *qi, *qd)
	} else {
		sh, err = shape.New(*items, *nodeCap, *qi, *qd)
	}
	check(err)
	costs := core.PaperCosts(*disk)
	costs.MemLevels = *memLevels
	if *buffer >= 0 {
		costs, err = core.BufferedCosts(sh, *buffer, costs)
		check(err)
		fmt.Printf("LRU buffer: %.0f nodes, expected hit ratio %.3f\n",
			*buffer, core.ExpectedHitRatio(sh, costs))
	}
	m := core.Model{Shape: sh, Costs: costs}
	mix := workload.Mix{QS: *qs, QI: *qi, QD: *qd}
	check(mix.Validate())
	w := core.Workload{Lambda: *lambda, Mix: mix}

	fmt.Printf("tree: %v\n", sh)
	fmt.Printf("algorithm: %v   disk cost: %v   mix: qs=%.2f qi=%.2f qd=%.2f   λ=%v\n\n",
		alg, *disk, *qs, *qi, *qd, *lambda)

	var res *core.Result
	switch alg {
	case core.OD:
		rec, err := core.ParseRecovery(*recovery)
		check(err)
		res, err = core.AnalyzeOD(m, w, core.ODOptions{Recovery: rec, TTrans: *ttrans})
		check(err)
	default:
		res, err = core.Analyze(alg, m, w)
		check(err)
	}

	tb := table.New("Per-level queue solution (leaf = level 1)",
		"level", "lambda_r", "lambda_w", "mu_r", "mu_w", "rho_w", "R_wait", "W_wait", "stable")
	for _, lv := range res.Levels {
		tb.AddRow(fmt.Sprint(lv.Level), table.F(lv.LambdaR), table.F(lv.LambdaW),
			table.F(lv.MuR), table.F(lv.MuW), table.F(lv.RhoW),
			table.F(lv.R), table.F(lv.W), fmt.Sprint(lv.Stable))
	}
	check(tb.Render(os.Stdout))

	fmt.Printf("\nresponse times: search=%s insert=%s delete=%s (stable=%v)\n",
		table.F(res.RespSearch), table.F(res.RespInsert), table.F(res.RespDelete), res.Stable)
	if alg == core.OLC {
		fmt.Printf("latch-free reads: restart prob=%s  fallback prob=%s  restarts/op=%s\n",
			table.F(res.RestartProb), table.F(res.FallbackProb), table.F(res.RestartsPerOp))
	}

	if *simSeeds > 0 {
		rec, err := core.ParseRecovery(*recovery)
		check(err)
		cfg := sim.Paper(alg, *lambda, *disk)
		cfg.NodeCap = *nodeCap
		cfg.InitialItems = sh.Items
		cfg.Mix = mix
		cfg.Costs = costs
		cfg.Recovery = rec
		cfg.TTrans = *ttrans
		cfg.Ops = *simOps
		cfg.Warmup = *simOps / 10
		rep, err := sim.RunSeeds(cfg, sim.DefaultSeeds(*simSeeds))
		check(err)
		fmt.Printf("simulator (%d seeds × %d ops, %d workers): search=%s insert=%s delete=%s ρ_w(root)=%s unstable=%v\n",
			*simSeeds, *simOps, sim.Parallelism(),
			table.FE(rep.RespSearch.Mean, rep.RespSearch.CI95),
			table.FE(rep.RespInsert.Mean, rep.RespInsert.CI95),
			table.FE(rep.RespDelete.Mean, rep.RespDelete.CI95),
			table.FE(rep.RootRhoW.Mean, rep.RootRhoW.CI95), rep.Unstable)
	}

	mixOnly := core.Workload{Mix: mix}
	lmax, err := core.MaxThroughput(alg, m, mixOnly, 1e-4)
	check(err)
	l50, err := core.EffectiveMaxThroughput(alg, m, mixOnly, 0.5, 1e-4)
	check(err)
	fmt.Printf("max throughput: %s   effective max (ρ_w=.5): %s\n", table.F(lmax), table.F(l50))

	switch alg {
	case core.NLC:
		if r1, err := core.RuleOfThumb1(m, mixOnly); err == nil {
			r2, _ := core.RuleOfThumb2(m, mixOnly)
			fmt.Printf("rule of thumb 1: %s   limit rule 2: %s\n", table.F(r1), table.F(r2))
		}
	case core.OD:
		if r3, err := core.RuleOfThumb3(m, mixOnly); err == nil {
			r4, _ := core.RuleOfThumb4(m, mixOnly)
			fmt.Printf("rule of thumb 3: %s   limit rule 4: %s\n", table.F(r3), table.F(r4))
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "btmodel:", err)
		os.Exit(1)
	}
}
