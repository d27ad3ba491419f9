package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// runChild runs one workload in a process of its own, so that no run
// inherits another's heap, and parses the result line. With echo the
// child's report is passed through.
func runChild(name string, seed uint64, seconds, trace int, echo bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if echo {
		os.Stdout.Write(out)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	return res, nil
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns:
// the driver judges the benchmark's spread with that function.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runSelfcheck measures the benchmark's own noise: sets sets of runs runs
// per workload, every run on another seed, back to back on this binary. It
// prints a Markdown report and returns the exit code: 0 only if every
// end-to-end metric stayed inside its bound both within and between sets.
func runSelfcheck(sets, runs, seconds int) int {
	if sets < 1 || runs < 2 {
		fmt.Fprintln(os.Stderr, "bench: selfcheck needs -sets >= 1 and -runs >= 2")
		return 2
	}
	fmt.Printf("# Benchmark noise\n\n")
	fmt.Printf("`bash bench/run.sh -selfcheck -sets %d -runs %d -seconds %d`: %d sets of %d runs per workload, each run its own process and its own seed, back to back on one binary.\n\n",
		sets, runs, seconds, sets, runs)
	fmt.Printf("nproc %d, GOMAXPROCS %d, %s, cpu %q, commit %s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit())
	if load, ok := loadAvg1(); ok {
		fmt.Printf(", 1-minute load average at start %.2f", load)
		if load > 0.5 {
			fmt.Printf(" (WARNING: above 0.5, the machine is busy)")
		}
	}
	fmt.Printf("\n\n")
	fmt.Printf("spread = (q3 - q1) / median of one set, quartiles as Python's `statistics.quantiles(n=4)`; range = (max - min) / median; drift = how much worse the last set's median is than the first's. ")
	fmt.Printf("PASS: every set's spread (except `setup_s`'s) and the drift are within the bound; `steady` marks a spread below a third of the bound.\n")

	// vals[{workload, metric}][set] = the runs' values.
	type cell struct{ workload, metric string }
	vals := map[cell][][]float64{}
	failedOps := map[string]int64{}
	code := 0
	for set := 0; set < sets; set++ {
		for _, sp := range specs {
			for run := 0; run < runs; run++ {
				seed := uint64(set*runs + run + 1)
				res, err := runChild(sp.name, seed, seconds, 0, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				if !res.Correct {
					code = 1
				}
				failedOps[sp.name] += res.Failed
				for _, d := range e2eMetrics {
					k := cell{sp.name, d.name}
					if vals[k] == nil {
						vals[k] = make([][]float64, sets)
					}
					vals[k][set] = append(vals[k][set], res.Metrics[d.name].Value)
				}
			}
		}
	}

	for _, sp := range specs {
		fmt.Printf("\n## %s\n\nfailed ops over all runs: %d\n\n", sp.name, failedOps[sp.name])
		fmt.Printf("| metric | unit | bound |")
		for set := 0; set < sets; set++ {
			fmt.Printf(" set %d median [q1, q3] | spread | range |", set+1)
		}
		fmt.Printf(" drift | verdict |\n|---|---|---|")
		fmt.Print(strings.Repeat("---|---|---|", sets))
		fmt.Printf("---|---|\n")
		for _, d := range e2eMetrics {
			fmt.Printf("| `%s` | %s | %.0f%% |", d.name, d.unit, d.bound*100)
			pass, steady := true, true
			var medians []float64
			for _, xs := range vals[cell{sp.name, d.name}] {
				q1, q2, q3 := quartiles(xs)
				s := append([]float64(nil), xs...)
				sort.Float64s(s)
				spread := (q3 - q1) / q2
				fmt.Printf(" %.4g [%.4g, %.4g] | %.2f%% | %.2f%% |", q2, q1, q3, spread*100, (s[len(s)-1]-s[0])/q2*100)
				medians = append(medians, q2)
				if d.name != "setup_s" {
					pass = pass && spread <= d.bound
					steady = steady && spread < d.bound/3
				}
			}
			drift := medians[len(medians)-1]/medians[0] - 1
			if d.better == "higher" {
				drift = -drift
			}
			pass = pass && drift <= d.bound
			verdict := "FAIL"
			switch {
			case pass && steady:
				verdict = "PASS steady"
			case pass:
				verdict = "PASS"
			default:
				code = 1
			}
			fmt.Printf(" %+.2f%% | %s |\n", drift*100, verdict)
		}
	}
	return code
}
