// Command btmodel evaluates the analytical framework and, with -simulate,
// checks it against the §4 simulator on the same configuration: given a
// tree shape, a cost model and a workload, it prints the per-level queue
// solution, the operation response times, the maximum and
// effective-maximum throughputs and the §6 rules of thumb, then the
// simulated response times. Replications use seeds 1..N, warm up for a
// tenth of -simops, and run on up to GOMAXPROCS cores; the numbers do not
// depend on how many. With -simulate 1 it also prints the replication's
// run counters, percentiles and per-level lock waits.
//
// Examples:
//
//	btmodel -alg nlc -lambda 0.3
//	btmodel -alg od -nodecap 59 -height 4 -disk 10 -recovery naive -ttrans 100 -lambda 0.05
//	btmodel -alg link -lambda 10 -items 1000000
//	btmodel -alg olc -lambda 1.5 -items 5000 -simulate 1 -simops 800
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"btreeperf/internal/core"
	"btreeperf/internal/shape"
	"btreeperf/internal/sim"
	"btreeperf/internal/table"
	"btreeperf/internal/workload"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "btmodel:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("btmodel", flag.ContinueOnError)
	var (
		algName    = fs.String("alg", "nlc", "algorithm: nlc, od, link, 2pl, olc")
		items      = fs.Int("items", 40000, "keys in the tree")
		nodeCap    = fs.Int("nodecap", 13, "maximum items per node (N)")
		height     = fs.Int("height", 0, "force tree height (0 = derive from items)")
		rootFanout = fs.Float64("rootfanout", 6, "root fanout when -height is forced")
		disk       = fs.Float64("disk", 5, "on-disk access cost multiplier (D)")
		memLevels  = fs.Int("mem", 2, "top levels held in memory")
		qs         = fs.Float64("qs", 0.3, "search fraction")
		qi         = fs.Float64("qi", 0.5, "insert fraction")
		qd         = fs.Float64("qd", 0.2, "delete fraction")
		lambda     = fs.Float64("lambda", 0.1, "total arrival rate")
		recovery   = fs.String("recovery", "none", "recovery protocol: none, leaf, naive (modelled for od only)")
		ttrans     = fs.Float64("ttrans", 100, "transaction commit delay for recovery")
		buffer     = fs.Float64("buffer", -1, "LRU buffer pool size in nodes (replaces -mem; -1 disables)")
		simSeeds   = fs.Int("simulate", 0, "cross-check the point with N simulator replications (0 = model only)")
		simOps     = fs.Int("simops", 10000, "operations per cross-check replication")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	alg, err := core.ParseAlgorithm(*algName)
	if err != nil {
		return err
	}
	rec, err := core.ParseRecovery(*recovery)
	if err != nil {
		return err
	}
	var sh *shape.Model
	if *height > 0 {
		sh, err = shape.NewWithHeight(*height, *nodeCap, *rootFanout, *qi, *qd)
	} else {
		sh, err = shape.New(*items, *nodeCap, *qi, *qd)
	}
	if err != nil {
		return err
	}
	costs := core.PaperCosts(*disk)
	costs.MemLevels = *memLevels
	if *buffer >= 0 {
		if costs, err = core.BufferedCosts(sh, *buffer, costs); err != nil {
			return err
		}
		fmt.Fprintf(w, "LRU buffer: %.0f nodes, expected hit ratio %.3f\n",
			*buffer, core.ExpectedHitRatio(sh, costs))
	}
	m := core.Model{Shape: sh, Costs: costs}
	mix := workload.Mix{QS: *qs, QI: *qi, QD: *qd}
	if err := mix.Validate(); err != nil {
		return err
	}

	fmt.Fprintf(w, "tree: %v\n", sh)
	fmt.Fprintf(w, "algorithm: %v   disk cost: %v   mix: qs=%.2f qi=%.2f qd=%.2f   λ=%v\n\n",
		alg, *disk, *qs, *qi, *qd, *lambda)

	if alg != core.OD && rec != core.NoRecovery {
		fmt.Fprintln(w, "model: n/a (the analysis prices recovery for od only)")
	} else if err := model(w, alg, m, mix, *lambda, core.ODOptions{Recovery: rec, TTrans: *ttrans}); err != nil {
		return err
	}

	if *simSeeds <= 0 {
		return nil
	}
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
	if err != nil {
		return err
	}
	if *simSeeds == 1 {
		return replication(w, rep.Results[0])
	}
	fmt.Fprintf(w, "\nsimulator (%d seeds × %d ops): search=%s insert=%s delete=%s ρ_w(root)=%s unstable=%v\n",
		*simSeeds, *simOps,
		table.FE(rep.RespSearch.Mean, rep.RespSearch.CI95),
		table.FE(rep.RespInsert.Mean, rep.RespInsert.CI95),
		table.FE(rep.RespDelete.Mean, rep.RespDelete.CI95),
		table.FE(rep.RootRhoW.Mean, rep.RootRhoW.CI95), rep.Unstable)
	return nil
}

// model prints the analysis of the point: the per-level queue solution,
// the response times, and the throughput limits, all under the recovery
// protocol in od (which only Optimistic Descent's analysis prices).
func model(w io.Writer, alg core.Algorithm, m core.Model, mix workload.Mix, lambda float64, od core.ODOptions) error {
	at, mixOnly := core.Workload{Lambda: lambda, Mix: mix}, core.Workload{Mix: mix}
	var (
		res       *core.Result
		lmax, l50 float64
		errs      [3]error
	)
	if alg == core.OD {
		res, errs[0] = core.AnalyzeOD(m, at, od)
		lmax, errs[1] = core.MaxThroughputOD(m, mixOnly, od, 1e-4)
		l50, errs[2] = core.EffectiveMaxThroughputOD(m, mixOnly, od, 0.5, 1e-4)
	} else {
		res, errs[0] = core.Analyze(alg, m, at)
		lmax, errs[1] = core.MaxThroughput(alg, m, mixOnly, 1e-4)
		l50, errs[2] = core.EffectiveMaxThroughput(alg, m, mixOnly, 0.5, 1e-4)
	}
	if err := errors.Join(errs[:]...); err != nil {
		return err
	}

	tb := table.New("Per-level queue solution (leaf = level 1)",
		"level", "lambda_r", "lambda_w", "mu_r", "mu_w", "rho_w", "R_wait", "W_wait", "stable")
	for _, lv := range res.Levels {
		tb.AddRow(fmt.Sprint(lv.Level), table.F(lv.LambdaR), table.F(lv.LambdaW),
			table.F(lv.MuR), table.F(lv.MuW), table.F(lv.RhoW),
			table.F(lv.R), table.F(lv.W), fmt.Sprint(lv.Stable))
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nresponse times: search=%s insert=%s delete=%s (stable=%v)\n",
		table.F(res.RespSearch), table.F(res.RespInsert), table.F(res.RespDelete), res.Stable)
	if alg == core.OLC {
		fmt.Fprintf(w, "latch-free reads: restart prob=%s  fallback prob=%s  restarts/op=%s\n",
			table.F(res.RestartProb), table.F(res.FallbackProb), table.F(res.RestartsPerOp))
	}
	fmt.Fprintf(w, "max throughput: %s   effective max (ρ_w=.5): %s\n", table.F(lmax), table.F(l50))

	// Rules of thumb 3–4 are closed forms without recovery.
	switch {
	case alg == core.NLC:
		if r1, err := core.RuleOfThumb1(m, mixOnly); err == nil {
			r2, _ := core.RuleOfThumb2(m, mixOnly)
			fmt.Fprintf(w, "rule of thumb 1: %s   limit rule 2: %s\n", table.F(r1), table.F(r2))
		}
	case alg == core.OD && od.Recovery == core.NoRecovery:
		if r3, err := core.RuleOfThumb3(m, mixOnly); err == nil {
			r4, _ := core.RuleOfThumb4(m, mixOnly)
			fmt.Fprintf(w, "rule of thumb 3: %s   limit rule 4: %s\n", table.F(r3), table.F(r4))
		}
	}
	return nil
}

// replication prints everything one simulator run measured: its run
// counters, per-class means with their confidence intervals, root ρ_w,
// restarts and crossings, percentiles and per-level lock waits.
func replication(w io.Writer, res *sim.Result) error {
	cfg := res.Config
	fmt.Fprintf(w, "\nsimulator (seed %d × %d ops, %d warm-up):\n", cfg.Seed, cfg.Ops, cfg.Warmup)
	fmt.Fprintf(w, "completed=%d measured=%d duration=%s height=%d unstable=%v\n",
		res.Completed, res.Measured, table.F(res.Duration), res.TreeHeight, res.Unstable)
	fmt.Fprintf(w, "search: %s   insert: %s   delete: %s\n",
		table.FE(res.RespSearch.Mean, res.RespSearch.CI95),
		table.FE(res.RespInsert.Mean, res.RespInsert.CI95),
		table.FE(res.RespDelete.Mean, res.RespDelete.CI95))
	fmt.Fprintf(w, "root ρ_w=%s  restarts=%d  crossings=%d  splits=%d\n",
		table.F(res.RootRhoW), res.Restarts, res.LinkCrossings, res.Splits)
	if cfg.Algorithm == core.OLC {
		fmt.Fprintf(w, "latch-free read restarts=%d  locked fallbacks=%d\n",
			res.ReadRestarts, res.ReadFallbacks)
	}
	p := res.Percentiles
	fmt.Fprintf(w, "response percentiles: p50=%s p90=%s p95=%s p99=%s max=%s\n\n",
		table.F(p.P50), table.F(p.P90), table.F(p.P95), table.F(p.P99), table.F(p.Max))

	tb := table.New("Per-level lock waits (leaf = level 1)",
		"level", "mean_wait_R", "mean_wait_W", "grants_R", "grants_W")
	for _, lw := range res.LevelWaits {
		tb.AddRow(fmt.Sprint(lw.Level), table.F(lw.MeanWaitR), table.F(lw.MeanWaitW),
			fmt.Sprint(lw.GrantsR), fmt.Sprint(lw.GrantsW))
	}
	return tb.Render(w)
}
