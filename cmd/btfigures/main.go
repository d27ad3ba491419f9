// Command btfigures regenerates the paper's evaluation figures (3–16),
// writing one aligned-text table and one CSV per figure.
//
// Examples:
//
//	btfigures -fig all -out results
//	btfigures -fig 3,12 -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"btreeperf/internal/experiments"
	"btreeperf/internal/sim"
)

func main() {
	var (
		figs     = flag.String("fig", "all", "comma-separated figure numbers (3..16) or 'all'")
		quick    = flag.Bool("quick", false, "reduced sweeps and replication for a fast pass")
		out      = flag.String("out", "results", "output directory ('' to skip files)")
		seeds    = flag.Int("seeds", 0, "replications per point (default: paper's 5)")
		ops      = flag.Int("ops", 0, "operations per replication (default: paper's 10000)")
		progress = flag.Bool("progress", true, "periodic per-figure progress lines on stderr")
	)
	flag.Parse()

	var selected []experiments.Figure
	if *figs == "all" {
		selected = append(experiments.All(), experiments.Extras()...)
	} else {
		for _, id := range strings.Split(*figs, ",") {
			f, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "btfigures: unknown figure %q\n", id)
				os.Exit(1)
			}
			selected = append(selected, f)
		}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "btfigures:", err)
			os.Exit(1)
		}
	}

	opts := experiments.Options{Quick: *quick, Seeds: *seeds, Ops: *ops}
	grand := time.Now()
	for _, f := range selected {
		start := time.Now()
		stop := make(chan struct{})
		ticked := make(chan struct{})
		if *progress {
			go watchProgress(f.ID, start, stop, ticked)
		} else {
			close(ticked)
		}
		sim.ResetPoolProgress()
		tb, err := f.Run(opts)
		close(stop)
		<-ticked
		if err != nil {
			fmt.Fprintf(os.Stderr, "btfigures: %s: %v\n", f.ID, err)
			os.Exit(1)
		}
		tb.Title = f.Title
		tb.Caption = f.Caption
		fmt.Println()
		if err := tb.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "btfigures:", err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		p := sim.PoolProgress()
		fmt.Printf("(%s in %v: %d/%d replications, %d ops, %s, GOMAXPROCS %d)\n",
			f.ID, elapsed.Round(time.Millisecond), p.Done, p.Queued, p.Ops,
			opsRate(p.Ops, elapsed), runtime.GOMAXPROCS(0))

		if *out != "" {
			txt, err := os.Create(filepath.Join(*out, f.ID+".txt"))
			if err == nil {
				err = tb.Render(txt)
				txt.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "btfigures:", err)
				os.Exit(1)
			}
			csvf, err := os.Create(filepath.Join(*out, f.ID+".csv"))
			if err == nil {
				err = tb.WriteCSV(csvf)
				csvf.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "btfigures:", err)
				os.Exit(1)
			}
		}
	}
	if len(selected) > 1 {
		fmt.Printf("\ntotal: %d figures in %v (GOMAXPROCS %d)\n",
			len(selected), time.Since(grand).Round(time.Millisecond), runtime.GOMAXPROCS(0))
	}
}

// watchProgress emits a periodic stderr line with the worker pool's
// replication and throughput counters until stop closes, then signals
// ticked so the final per-figure summary never interleaves with it.
func watchProgress(id string, start time.Time, stop <-chan struct{}, ticked chan<- struct{}) {
	defer close(ticked)
	t := time.NewTicker(2 * time.Second)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			p := sim.PoolProgress()
			fmt.Fprintf(os.Stderr, "btfigures: %s: %d/%d replications, %d ops (%s)\n",
				id, p.Done, p.Queued, p.Ops, opsRate(p.Ops, time.Since(start)))
		}
	}
}

// opsRate formats simulated operations per wall-clock second.
func opsRate(ops int64, elapsed time.Duration) string {
	if elapsed <= 0 {
		return "0 ops/s"
	}
	r := float64(ops) / elapsed.Seconds()
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.1fM ops/s", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fk ops/s", r/1e3)
	default:
		return fmt.Sprintf("%.0f ops/s", r)
	}
}
