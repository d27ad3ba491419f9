package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"btreeperf/internal/core"
	"btreeperf/internal/sim"
	"btreeperf/internal/table"
)

func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	if err := run(args, &b); err != nil {
		t.Fatalf("btmodel %s: %v", strings.Join(args, " "), err)
	}
	return b.String()
}

var limitsLine = regexp.MustCompile(`max throughput: (\S+)   effective max \(ρ_w=\.5\): (\S+)`)

// limits returns the printed maximum and effective-maximum throughputs.
func limits(t *testing.T, out string) (lmax, l50 float64) {
	t.Helper()
	m := limitsLine.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no throughput line in:\n%s", out)
	}
	lmax, err1 := strconv.ParseFloat(m[1], 64)
	l50, err2 := strconv.ParseFloat(m[2], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("throughput line %q: %v %v", m[0], err1, err2)
	}
	return lmax, l50
}

// rootRhoW returns the root row's rho_w from the printed queue solution.
func rootRhoW(t *testing.T, out string) float64 {
	t.Helper()
	var root []string
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) == 9 && (f[8] == "true" || f[8] == "false") {
			root = f
		}
	}
	if root == nil {
		t.Fatalf("no queue solution in:\n%s", out)
	}
	rho, err := strconv.ParseFloat(root[5], 64)
	if err != nil {
		t.Fatal(err)
	}
	return rho
}

// TestThroughputLimitsPriceRecovery checks that under a §7 recovery
// protocol the printed limits are those of the configuration the rest of
// the output analyzes: just below the maximum throughput the point is
// stable and just above it is not, and the root's ρ_w crosses .5 at the
// effective maximum. Rules of thumb 3–4 assume no recovery, so they are
// printed only without it.
func TestThroughputLimitsPriceRecovery(t *testing.T) {
	base := []string{"-alg", "od", "-nodecap", "13", "-height", "5", "-disk", "10", "-ttrans", "100"}
	for _, rec := range []string{"none", "leaf", "naive"} {
		args := append(append([]string{}, base...), "-recovery", rec)
		out := runOut(t, args...)
		lmax, l50 := limits(t, out)
		at := func(lambda float64) string {
			return runOut(t, append(args, "-lambda", fmt.Sprint(lambda))...)
		}
		if !strings.Contains(at(0.99*lmax), "(stable=true)") {
			t.Errorf("recovery %s: unstable at 0.99 × printed max throughput %v", rec, lmax)
		}
		if !strings.Contains(at(1.01*lmax), "(stable=false)") {
			t.Errorf("recovery %s: stable at 1.01 × printed max throughput %v", rec, lmax)
		}
		if rho := rootRhoW(t, at(0.99*l50)); rho >= 0.5 {
			t.Errorf("recovery %s: root ρ_w %v at 0.99 × printed effective max %v", rec, rho, l50)
		}
		if rho := rootRhoW(t, at(1.01*l50)); rho < 0.5 {
			t.Errorf("recovery %s: root ρ_w %v at 1.01 × printed effective max %v", rec, rho, l50)
		}
		if got := strings.Contains(out, "rule of thumb 3"); got != (rec == "none") {
			t.Errorf("recovery %s: rule of thumb 3 printed = %v", rec, got)
		}
	}
}

// TestRecoveryOutsideODIsSimulatedOnly checks that a recovery protocol on
// an algorithm whose analysis does not price it prints no model numbers,
// while the simulator still runs that configuration.
func TestRecoveryOutsideODIsSimulatedOnly(t *testing.T) {
	out := runOut(t, "-alg", "nlc", "-lambda", "0.2", "-items", "3000", "-disk", "10",
		"-recovery", "naive", "-simulate", "1", "-simops", "400")
	if !strings.Contains(out, "model: n/a (the analysis prices recovery for od only)") {
		t.Errorf("no n/a model line in:\n%s", out)
	}
	for _, modelLine := range []string{"Per-level queue solution", "response times:", "max throughput:", "rule of thumb"} {
		if strings.Contains(out, modelLine) {
			t.Errorf("model line %q printed for an unmodelled configuration:\n%s", modelLine, out)
		}
	}

	cfg := sim.Paper(core.NLC, 0.2, 10)
	cfg.InitialItems = 3000
	cfg.Recovery = core.NaiveRecovery
	cfg.TTrans = 100
	cfg.Ops, cfg.Warmup = 400, 40
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("insert: %s", table.FE(res.RespInsert.Mean, res.RespInsert.CI95))
	if !strings.Contains(out, want) {
		t.Errorf("simulated %q (naive recovery) missing from:\n%s", want, out)
	}
}

// TestSimulateOnePrintsTheReplication checks that -simulate 1 prints every
// counter of the one run, including OLC's latch-free read restarts and
// fallbacks, and that more replications print their summary.
func TestSimulateOnePrintsTheReplication(t *testing.T) {
	out := runOut(t, "-alg", "olc", "-lambda", "1.5", "-items", "3000", "-simulate", "1", "-simops", "400")
	cfg := sim.Paper(core.OLC, 1.5, 5)
	cfg.InitialItems = 3000
	cfg.TTrans = 100
	cfg.Ops, cfg.Warmup = 400, 40
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Percentiles
	for _, want := range []string{
		fmt.Sprintf("completed=%d measured=%d duration=%s height=%d unstable=%v",
			res.Completed, res.Measured, table.F(res.Duration), res.TreeHeight, res.Unstable),
		fmt.Sprintf("search: %s", table.FE(res.RespSearch.Mean, res.RespSearch.CI95)),
		fmt.Sprintf("root ρ_w=%s  restarts=%d  crossings=%d  splits=%d",
			table.F(res.RootRhoW), res.Restarts, res.LinkCrossings, res.Splits),
		fmt.Sprintf("latch-free read restarts=%d  locked fallbacks=%d", res.ReadRestarts, res.ReadFallbacks),
		fmt.Sprintf("p50=%s p90=%s p95=%s p99=%s max=%s",
			table.F(p.P50), table.F(p.P90), table.F(p.P95), table.F(p.P99), table.F(p.Max)),
		"Per-level lock waits",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("%q missing from:\n%s", want, out)
		}
	}

	out = runOut(t, "-alg", "olc", "-lambda", "1.5", "-items", "3000", "-simulate", "2", "-simops", "400")
	if !strings.Contains(out, "simulator (2 seeds × 400 ops)") || strings.Contains(out, "completed=") {
		t.Errorf("-simulate 2 output:\n%s", out)
	}
}
