// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON document suitable for committing as a tracked benchmark
// baseline and for machine comparison across runs:
//
//	go test ./internal/server -bench . -benchmem -count 3 | benchjson -note "..." > results/BENCH_serving.json
//
// The document carries only what repeats from one machine to the next,
// which is what a tracked file is for: the counted per-op units (B/op,
// allocs/op, and custom b.ReportMetric ratios such as keys/op and
// ops/fsync — see tracked). Timings — ns/op, MB/s, the iteration count
// they decide, sampled quantiles such as p50_us — and the CPU model stay
// in the raw text, which remains the benchstat-comparable record; timing
// claims are priced by bench/ (see bench/README.md). Repeated runs of the
// same benchmark (-count > 1) are collapsed to their per-metric median.
//
// With -compare it reads two such documents instead and gates the one
// number in them that repeats exactly:
//
//	benchjson -compare results/BENCH_serving.json new.json
//
// exits non-zero when any benchmark present in both allocates more per
// op in new.json than in the baseline, or when a benchmark of the
// baseline is absent from new.json (renamed, or no longer selected by
// the script's regexp: it would leave the gate unseen).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

type benchmark struct {
	Name    string             `json:"name"`
	Runs    int                `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

type report struct {
	Note       string      `json:"note,omitempty"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
}

func main() {
	note := flag.String("note", "", "free-form provenance note embedded in the report")
	cmp := flag.Bool("compare", false, "compare two reports (base.json new.json): fail if any allocs/op rose")
	flag.Parse()
	if *cmp {
		if err := runCompare(flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	rep := report{Note: *note}
	samples := map[string]map[string][]float64{} // name -> unit -> values
	var order []string

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			name, units := parseBenchLine(line)
			if name == "" {
				continue
			}
			if _, seen := samples[name]; !seen {
				samples[name] = map[string][]float64{}
				order = append(order, name)
			}
			for unit, v := range units {
				samples[name][unit] = append(samples[name][unit], v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(order) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	for _, name := range order {
		b := benchmark{Name: name, Metrics: map[string]float64{}}
		for unit, vals := range samples[name] {
			if len(vals) > b.Runs {
				b.Runs = len(vals)
			}
			if tracked(unit) {
				b.Metrics[unit] = median(vals)
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool {
		return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name
	})

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: benchjson -compare base.json new.json")
	}
	base, err := readReport(args[0])
	if err != nil {
		return err
	}
	cur, err := readReport(args[1])
	if err != nil {
		return err
	}
	rose, missing := compare(os.Stdout, base, cur)
	if rose > 0 || missing > 0 {
		return fmt.Errorf("against %s: allocs/op rose on %d benchmark(s), %d benchmark(s) of the baseline did not run",
			args[0], rose, missing)
	}
	return nil
}

func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// tracked reports whether a unit counts something per something — B/op,
// allocs/op, keys/op, ops/fsync — rather than timing the machine it ran
// on: ns/op, MB/s, and the units with no denominator (p50_us).
func tracked(unit string) bool {
	return strings.Contains(unit, "/") && unit != "ns/op" && unit != "MB/s"
}

// compare prints one line per benchmark of cur that base also has —
// allocs/op and B/op in both — and returns how many of them allocate
// more per op than in base, and how many benchmarks of base cur lacks. A
// benchmark only cur ran is listed and not judged.
func compare(w io.Writer, base, cur report) (rose, missing int) {
	baseline := map[string]benchmark{}
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	for _, c := range cur.Benchmarks {
		b, ok := baseline[c.Name]
		if !ok {
			fmt.Fprintf(w, "%-60s only in new\n", c.Name)
			continue
		}
		delete(baseline, c.Name)
		verdict := ""
		if c.Metrics["allocs/op"] > b.Metrics["allocs/op"] {
			verdict = "  ROSE"
			rose++
		}
		fmt.Fprintf(w, "%-60s allocs/op %4g -> %-4g B/op %6g -> %-6g%s\n",
			c.Name, b.Metrics["allocs/op"], c.Metrics["allocs/op"], b.Metrics["B/op"], c.Metrics["B/op"], verdict)
	}
	for _, b := range base.Benchmarks {
		if _, left := baseline[b.Name]; left {
			fmt.Fprintf(w, "%-60s only in base  MISSING\n", b.Name)
			missing++
		}
	}
	return rose, missing
}

// parseBenchLine parses one result line:
//
//	BenchmarkX/sub-4  1234  987 ns/op  22 B/op  0 allocs/op  145.2 p50_us
//
// i.e. a name, an iteration count (checked, not kept), then (value, unit)
// pairs — whatever metrics the run reported, in any order.
func parseBenchLine(line string) (string, map[string]float64) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return "", nil
	}
	name := strings.TrimSuffix(f[0], fmt.Sprintf("-%d", numCPUSuffix(f[0])))
	units := map[string]float64{}
	if _, err := strconv.ParseFloat(f[1], 64); err != nil {
		return "", nil
	}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", nil
		}
		units[f[i+1]] = v
	}
	return name, units
}

// numCPUSuffix extracts the trailing -N GOMAXPROCS tag from a benchmark
// name, or 0 if there is none (the -0 suffix never occurs, so TrimSuffix
// with it is a no-op).
func numCPUSuffix(name string) int {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return 0
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return 0
	}
	return n
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
