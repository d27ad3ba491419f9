// Command btsim runs the concurrent B-tree simulator (§4 of the paper):
// it builds a tree, fires Poisson-arriving concurrent operations at it
// under the chosen concurrency-control algorithm, and reports response
// times, per-level lock waits, root writer utilization, restarts and link
// crossings.
//
// Examples:
//
//	btsim -alg nlc -lambda 0.3
//	btsim -alg link -lambda 20 -seeds 5
//	btsim -alg od -recovery naive -ttrans 100 -disk 10 -lambda 0.05
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"btreeperf/internal/core"
	"btreeperf/internal/sim"
	"btreeperf/internal/table"
	"btreeperf/internal/workload"
)

func main() {
	var (
		algName  = flag.String("alg", "nlc", "algorithm: nlc, od, link, 2pl, olc")
		lambda   = flag.Float64("lambda", 0.1, "total arrival rate")
		disk     = flag.Float64("disk", 5, "on-disk access cost multiplier")
		nodeCap  = flag.Int("nodecap", 13, "maximum items per node")
		items    = flag.Int("items", 40000, "initial tree size")
		ops      = flag.Int("ops", 10000, "concurrent operations")
		warmup   = flag.Int("warmup", 1000, "operations excluded from statistics")
		seeds    = flag.Int("seeds", 1, "replications")
		seed     = flag.Uint64("seed", 1, "base seed (single replication)")
		qs       = flag.Float64("qs", 0.3, "search fraction")
		qi       = flag.Float64("qi", 0.5, "insert fraction")
		qd       = flag.Float64("qd", 0.2, "delete fraction")
		recovery = flag.String("recovery", "none", "recovery protocol: none, leaf, naive")
		ttrans   = flag.Float64("ttrans", 0, "transaction commit delay for recovery")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"replication worker pool size (1 = sequential; results are identical either way)")
	)
	flag.Parse()
	sim.SetParallelism(*parallel)

	alg, err := core.ParseAlgorithm(*algName)
	check(err)
	rec, err := core.ParseRecovery(*recovery)
	check(err)

	cfg := sim.Paper(alg, *lambda, *disk)
	cfg.NodeCap = *nodeCap
	cfg.InitialItems = *items
	cfg.Ops = *ops
	cfg.Warmup = *warmup
	cfg.Seed = *seed
	cfg.Recovery = rec
	cfg.TTrans = *ttrans
	cfg.Mix = workload.Mix{QS: *qs, QI: *qi, QD: *qd}

	if *seeds > 1 {
		rep, err := sim.RunSeeds(cfg, sim.DefaultSeeds(*seeds))
		check(err)
		fmt.Printf("%s λ=%v D=%v N=%d items=%d ops=%d seeds=%d\n",
			alg, *lambda, *disk, *nodeCap, *items, *ops, *seeds)
		fmt.Printf("search: %s   insert: %s   delete: %s\n",
			table.FE(rep.RespSearch.Mean, rep.RespSearch.CI95),
			table.FE(rep.RespInsert.Mean, rep.RespInsert.CI95),
			table.FE(rep.RespDelete.Mean, rep.RespDelete.CI95))
		fmt.Printf("root ρ_w: %s   unstable: %v\n",
			table.FE(rep.RootRhoW.Mean, rep.RootRhoW.CI95), rep.Unstable)
		return
	}

	res, err := sim.Run(cfg)
	check(err)
	fmt.Printf("%s λ=%v D=%v N=%d items=%d ops=%d seed=%d\n",
		alg, *lambda, *disk, *nodeCap, *items, *ops, *seed)
	fmt.Printf("completed=%d measured=%d duration=%s height=%d unstable=%v\n",
		res.Completed, res.Measured, table.F(res.Duration), res.TreeHeight, res.Unstable)
	fmt.Printf("search: %s   insert: %s   delete: %s\n",
		table.FE(res.RespSearch.Mean, res.RespSearch.CI95),
		table.FE(res.RespInsert.Mean, res.RespInsert.CI95),
		table.FE(res.RespDelete.Mean, res.RespDelete.CI95))
	fmt.Printf("root ρ_w=%s  restarts=%d  crossings=%d  splits=%d\n",
		table.F(res.RootRhoW), res.Restarts, res.LinkCrossings, res.Splits)
	if alg == core.OLC {
		fmt.Printf("latch-free read restarts=%d  locked fallbacks=%d\n",
			res.ReadRestarts, res.ReadFallbacks)
	}
	p := res.Percentiles
	fmt.Printf("response percentiles: p50=%s p90=%s p95=%s p99=%s max=%s\n\n",
		table.F(p.P50), table.F(p.P90), table.F(p.P95), table.F(p.P99), table.F(p.Max))

	tb := table.New("Per-level lock waits (leaf = level 1)",
		"level", "mean_wait_R", "mean_wait_W", "grants_R", "grants_W")
	for _, lw := range res.LevelWaits {
		tb.AddRow(fmt.Sprint(lw.Level), table.F(lw.MeanWaitR), table.F(lw.MeanWaitW),
			fmt.Sprint(lw.GrantsR), fmt.Sprint(lw.GrantsW))
	}
	check(tb.Render(os.Stdout))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "btsim:", err)
		os.Exit(1)
	}
}
