package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"btreeperf/internal/core"
	"btreeperf/internal/stats"
)

// quickCfg is a small but non-trivial configuration for pool tests.
func quickCfg() Config {
	cfg := Paper(core.NLC, 0.3, 5)
	cfg.InitialItems = 3000
	cfg.Ops = 400
	cfg.Warmup = 40
	return cfg
}

// TestRunSeedsParallelDeterministic asserts that the aggregate of
// RunSeeds is byte-identical at any core count: it equals a sequential
// reference computed here, sim.Run once per seed in seed order reduced as
// RunSeeds reduces, at GOMAXPROCS 1, 4 and 7.
func TestRunSeedsParallelDeterministic(t *testing.T) {
	cfg := quickCfg()
	seeds := DefaultSeeds(5)

	want := &Replicated{}
	var search, insert, del, rho []float64
	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		want.Results = append(want.Results, res)
		want.Unstable = want.Unstable || res.Unstable
		search = append(search, res.RespSearch.Mean)
		insert = append(insert, res.RespInsert.Mean)
		del = append(del, res.RespDelete.Mean)
		rho = append(rho, res.RootRhoW)
	}
	want.RespSearch = stats.Summarize(search)
	want.RespInsert = stats.Summarize(insert)
	want.RespDelete = stats.Summarize(del)
	want.RootRhoW = stats.Summarize(rho)
	wantText := renderReplicated(want)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4, 7} {
		runtime.GOMAXPROCS(procs)
		got, err := RunSeeds(cfg, seeds)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS %d: Replicated differs from the sequential reference", procs)
		}
		if gotText := renderReplicated(got); gotText != wantText {
			t.Errorf("GOMAXPROCS %d: rendered summary differs:\n%s\nvs\n%s", procs, gotText, wantText)
		}
	}
}

// renderReplicated formats every value in a Replicated (dereferencing the
// per-seed results so the text is free of pointer addresses).
func renderReplicated(rep *Replicated) string {
	var b strings.Builder
	for _, r := range rep.Results {
		fmt.Fprintf(&b, "%+v\n", *r)
	}
	fmt.Fprintf(&b, "%+v %+v %+v %+v %v",
		rep.RespSearch, rep.RespInsert, rep.RespDelete, rep.RootRhoW, rep.Unstable)
	return b.String()
}

func TestPoolProgressCounters(t *testing.T) {
	ResetPoolProgress()
	cfg := quickCfg()
	rep, err := RunSeeds(cfg, DefaultSeeds(3))
	if err != nil {
		t.Fatal(err)
	}
	p := PoolProgress()
	if p.Queued != 3 || p.Done != 3 {
		t.Errorf("progress queued/done = %d/%d, want 3/3", p.Queued, p.Done)
	}
	var completed int64
	for _, r := range rep.Results {
		completed += int64(r.Completed)
	}
	if p.Ops != completed {
		t.Errorf("progress ops = %d, want %d", p.Ops, completed)
	}
	ResetPoolProgress()
	if p := PoolProgress(); p != (Progress{}) {
		t.Errorf("progress after reset = %+v", p)
	}
}

func TestForEachPointOrderAndError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		out := make([]int, 8)
		if err := ForEachPoint(len(out), func(i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("GOMAXPROCS %d: out[%d] = %d", procs, i, v)
			}
		}
		err := ForEachPoint(6, func(i int) error {
			if i >= 2 {
				return fmt.Errorf("point %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "point 2 failed" {
			t.Fatalf("GOMAXPROCS %d: err = %v, want lowest-index failure", procs, err)
		}
	}
}

// TestUnstableRunLeaksNoGoroutines drives the simulator into its
// MaxInFlight unstable abort and asserts every DES process goroutine is
// unwound (sim.run defers Environment.Close).
func TestUnstableRunLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := quickCfg()
	cfg.Lambda = 50 // far beyond NLC saturation
	cfg.Ops = 2000
	cfg.Warmup = 10
	cfg.MaxInFlight = 25
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unstable {
		t.Fatal("run expected to be unstable")
	}
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after unstable run", before, runtime.NumGoroutine())
}

// Parallel replications must also wind down all their DES goroutines.
func TestRunSeedsParallelLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := RunSeeds(quickCfg(), DefaultSeeds(4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after parallel RunSeeds", before, runtime.NumGoroutine())
}
