package sim

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"btreeperf/internal/core"
	"btreeperf/internal/shape"
	"btreeperf/internal/stats"
	"btreeperf/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/runs.golden from the current simulator")

// goldenRun is one pinned simulation. reached, when set, checks on the
// finished session that the run took the path it is in the file for.
type goldenRun struct {
	name    string
	cfg     Config
	reached func(*session) error
}

func goldenRuns(t *testing.T) []goldenRun {
	var runs []goldenRun

	// Every algorithm under every recovery policy, on a paper-shaped tree
	// and on a cap-4 tree under a delete-heavy mix, at a quiet and a
	// contended load (the contended Link-type and OLC loads are where
	// link crossings, restarts and fallbacks happen).
	loads := map[core.Algorithm][2]float64{
		core.NLC: {0.1, 0.45}, core.OD: {0.1, 1.2}, core.TwoPhase: {0.05, 0.2},
		core.Link: {1, 12}, core.OLC: {1, 12},
	}
	for _, a := range []core.Algorithm{core.NLC, core.OD, core.Link, core.TwoPhase, core.OLC} {
		for _, rec := range []core.RecoveryPolicy{core.NoRecovery, core.LeafOnly, core.NaiveRecovery} {
			for _, small := range []bool{false, true} {
				for li, lambda := range loads[a] {
					cfg := Paper(a, lambda, 5)
					cfg.InitialItems, cfg.Ops, cfg.Warmup = 3000, 500, 50
					cfg.Recovery, cfg.TTrans = rec, 8
					cfg.Seed = uint64(li + 1)
					if small {
						cfg.NodeCap, cfg.InitialItems = 4, 400
						cfg.Mix = workload.Mix{QS: 0.1, QI: 0.5, QD: 0.4}
					}
					runs = append(runs, goldenRun{
						name: fmt.Sprintf("%v recovery=%v cap=%d lambda=%g", a, rec, cfg.NodeCap, lambda),
						cfg:  cfg,
					})
				}
			}
		}
	}

	// Merge-at-empty through the retained chain, for each lock-coupled
	// update: leaves empty, are removed, and the removal propagates.
	for _, a := range []core.Algorithm{core.NLC, core.OD, core.TwoPhase} {
		cfg := Paper(a, 0.5, 1)
		cfg.NodeCap, cfg.InitialItems = 3, 60
		cfg.Mix = workload.Mix{QS: 0.05, QI: 0.5, QD: 0.45}
		cfg.Ops, cfg.Warmup = 400, 10
		runs = append(runs, goldenRun{fmt.Sprintf("%v merge-at-empty", a), cfg, func(s *session) error {
			if s.tree.Stats().Removes == 0 {
				return fmt.Errorf("no node was emptied and removed")
			}
			return nil
		}})
	}

	// The root shrinks: a two-leaf tree that loses a leaf.
	shrink := Paper(core.NLC, 0.5, 1)
	shrink.NodeCap, shrink.InitialItems = 4, 5
	shrink.Mix = workload.Mix{QS: 0.05, QI: 0.5, QD: 0.45}
	shrink.Ops, shrink.Warmup, shrink.Seed = 12, 1, 3
	runs = append(runs, goldenRun{"naive-lock-coupling root shrink", shrink, func(s *session) error {
		if s.tree.Height() >= s.h {
			return fmt.Errorf("height %d → %d: the root did not shrink", s.h, s.tree.Height())
		}
		return nil
	}})

	// Split repair after the root grew over the remembered ancestor
	// stack: every insert arrives while the tree is a leaf or two.
	for _, a := range []core.Algorithm{core.Link, core.OLC} {
		cfg := Paper(a, 3, 1)
		cfg.NodeCap, cfg.InitialItems = 3, 2
		cfg.Mix = workload.Mix{QI: 1}
		cfg.Ops, cfg.Warmup = 400, 10
		runs = append(runs, goldenRun{fmt.Sprintf("%v outgrown stack", a), cfg, func(s *session) error {
			if s.tree.Height() < 5 {
				return fmt.Errorf("height %d: the concurrent inserts did not grow the tree", s.tree.Height())
			}
			return nil
		}})
	}

	// Searches that meet half-split nodes: latch-free (and, after the
	// fallback, R-locked) right-link follows on a tree that splits under
	// every few operations.
	for _, a := range []core.Algorithm{core.Link, core.OLC} {
		cfg := Paper(a, 6, 1)
		cfg.NodeCap, cfg.InitialItems = 3, 30
		cfg.Mix = workload.Mix{QS: 0.5, QI: 0.5}
		cfg.Ops, cfg.Warmup = 600, 10
		runs = append(runs, goldenRun{name: fmt.Sprintf("%v searches across splits", a), cfg: cfg})
	}

	// Buffered costs: node accesses draw hit-or-miss before the service time.
	sh, err := shape.New(3000, 13, 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	costs, err := core.BufferedCosts(sh, 40, core.PaperCosts(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []core.Algorithm{core.NLC, core.OLC} {
		cfg := Paper(a, 0.1, 10)
		cfg.InitialItems, cfg.Ops, cfg.Warmup, cfg.Costs = 3000, 500, 50, costs
		runs = append(runs, goldenRun{name: fmt.Sprintf("%v buffered", a), cfg: cfg})
	}
	return runs
}

// goldenRender prints every field of a Result, floats as raw bits, and the
// tree the run left behind.
func goldenRender(out *bytes.Buffer, name string, r *Result, s *session) {
	b := math.Float64bits
	fmt.Fprintf(out, "%s\n completed=%d measured=%d duration=%016x unstable=%v height=%d\n",
		name, r.Completed, r.Measured, b(r.Duration), r.Unstable, r.TreeHeight)
	for _, c := range []struct {
		op  string
		sum stats.Summary
	}{{"search", r.RespSearch}, {"insert", r.RespInsert}, {"delete", r.RespDelete}} {
		fmt.Fprintf(out, " %s n=%d mean=%016x ci95=%016x min=%016x max=%016x\n",
			c.op, c.sum.N, b(c.sum.Mean), b(c.sum.CI95), b(c.sum.Min), b(c.sum.Max))
	}
	p := r.Percentiles
	fmt.Fprintf(out, " p50=%016x p90=%016x p95=%016x p99=%016x max=%016x\n", b(p.P50), b(p.P90), b(p.P95), b(p.P99), b(p.Max))
	for _, l := range r.LevelWaits {
		fmt.Fprintf(out, " level=%d waitR=%016x waitW=%016x grantsR=%d grantsW=%d\n",
			l.Level, b(l.MeanWaitR), b(l.MeanWaitW), l.GrantsR, l.GrantsW)
	}
	fmt.Fprintf(out, " rootRhoW=%016x restarts=%d crossings=%d splits=%d readRestarts=%d readFallbacks=%d\n",
		b(r.RootRhoW), r.Restarts, r.LinkCrossings, r.Splits, r.ReadRestarts, r.ReadFallbacks)
	st := s.tree.Stats()
	fmt.Fprintf(out, " tree len=%d height=%d splits=%d removes=%d\n", s.tree.Len(), s.tree.Height(), st.Splits, st.Removes)
}

// TestGoldenRuns holds the simulator to the bits it produced when the file
// was recorded. A run is a function of its seed only while every lock
// request, service-time draw and tree edit happens in the same order, so
// one moved `access` or one extra draw changes every number after it —
// which the figures, means over thousands of operations printed to six
// digits, can absorb. Rewrite the file (-update) only for an intended
// change of the protocols, and say so.
func TestGoldenRuns(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("recorded on amd64; compilers that fuse multiply-adds round differently")
	}
	var got bytes.Buffer
	for _, gr := range goldenRuns(t) {
		res, s, err := run(gr.cfg)
		if err != nil {
			t.Fatalf("%s: %v", gr.name, err)
		}
		if err := s.tree.CheckInvariants(); err != nil {
			t.Fatalf("%s: tree corrupted: %v", gr.name, err)
		}
		if gr.reached != nil {
			if err := gr.reached(s); err != nil {
				t.Errorf("%s: %v", gr.name, err)
			}
		}
		goldenRender(&got, gr.name, res, s)
	}
	path := filepath.Join("testdata", "runs.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	name, diffs := "", 0
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if len(wl[i]) > 0 && wl[i][0] != ' ' {
			name = string(wl[i])
		}
		if !bytes.Equal(gl[i], wl[i]) {
			if diffs++; diffs <= 10 {
				t.Errorf("line %d (%s)\n got %s\nwant %s", i+1, name, gl[i], wl[i])
			}
		}
	}
	t.Fatalf("%d of %d lines differ from %s (lengths %d, %d)", diffs, len(wl), path, len(gl), len(wl))
}
