// Command bench is the repository's benchmark: four closed-loop serving
// workloads against an in-process btserved, six end-to-end metrics per
// workload, and a traced run that attributes them layer by layer. See
// README.md in this directory.
//
//	bash bench/run.sh --workload mem-paper-olc --seed 1 --seconds 16 --trace 0
//	bash bench/run.sh --workload mem-paper-olc --trace 1
//	bash bench/run.sh -selfcheck
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// setupReps is how often a run sets up; setup_s is the median.
const setupReps = 3

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func logf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

type options struct {
	sp      *spec
	seed    uint64
	seconds int
	scale   int    // divides every op count and the prefill: 1, or 200 in tests
	outDir  string // data files and traces go here
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(code)
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Uint64("seed", 1, "workload seed; claims are verified on seed 2")
		seconds      = flag.Int("seconds", runSeconds, "timed-phase length the frozen op count is scaled to")
		trace        = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of the end-to-end metrics")
		selfcheck    = flag.Bool("selfcheck", false, "run -sets sets of -runs runs per workload and report the noise")
		sets         = flag.Int("sets", 2, "selfcheck: sets")
		runs         = flag.Int("runs", 5, "selfcheck: runs per set")
	)
	flag.Parse()
	if err := checkMachine(); err != nil {
		fail(2, err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(2, errors.New("-seconds must be >= 1, -trace 0 or 1"))
	}
	outDir := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fail(1, err)
	}

	switch {
	case *selfcheck:
		os.Exit(runSelfcheck(*sets, *runs, *seconds))
	case *workloadName == "all":
		code := 0
		for _, sp := range specs {
			if _, err := runChild(sp.name, *seed, *seconds, *trace, true); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
			}
		}
		os.Exit(code)
	}

	sp, err := findSpec(*workloadName)
	if err != nil {
		fail(2, err)
	}
	o := options{sp: sp, seed: *seed, seconds: *seconds, scale: 1, outDir: outDir}
	printEnv(o)
	run := runPlain
	if *trace == 1 {
		run = runTraced
	}
	res, err := run(o)
	if err != nil {
		fail(1, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(1, err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// checkMachine pins GOMAXPROCS to min(nproc, 2) and refuses an override
// above the core count: oversubscribed runs do not repeat.
func checkMachine() error {
	nproc := runtime.NumCPU()
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > nproc {
			return fmt.Errorf("GOMAXPROCS=%d exceeds the %d available cores", n, nproc)
		}
		return nil
	}
	runtime.GOMAXPROCS(min(nproc, 2))
	return nil
}

func printEnv(o options) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	logf("bench: workload %s seed %d seconds %d", o.sp.name, o.seed, o.seconds)
	logf("env: nproc %d GOMAXPROCS %d GOGC %s %s cpu %q commit %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, runtime.Version(), cpuModel(), commit())
	if load, ok := loadAvg1(); ok {
		warn := ""
		if load > 0.5 {
			warn = "  WARNING: the machine is busy, numbers will be noisy"
		}
		logf("env: 1-minute load average %.2f%s", load, warn)
	}
	logf("load: %d connections x %d-request bursts, closed loop; %d keys prefilled, 16 B of user data per key", conns, burstSize, prefill/o.scale)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// commit reads the checked-out commit without running git; the driver's
// checkout is not a repository, so "unknown" is a normal answer.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(b))
	}
	if len(s) > 12 {
		s = s[:12]
	}
	return s
}

func loadAvg1() (float64, bool) {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, false
	}
	f, err := strconv.ParseFloat(strings.Fields(string(b))[0], 64)
	return f, err == nil
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timedOpsFor scales a workload's frozen op count to the requested run.
func timedOpsFor(o options) int {
	return phaseOps(int(int64(o.sp.timedOps) * int64(o.seconds) / runSeconds / int64(o.scale)))
}

// runPlain is the untraced run: set up setupReps times, measure one timed
// phase on the last instance, check the outputs, report the end-to-end
// metrics.
func runPlain(o options) (result, error) {
	sp := o.sp
	var inst *instance
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if inst != nil {
			if err := inst.teardown(); err != nil {
				return result{}, err
			}
			inst = nil
			debug.FreeOSMemory()
		}
		t0 := nowNs()
		var err error
		inst, err = setup(sp, o.seed, o.scale, o.outDir, false)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, float64(nowNs()-t0)/1e9)
	}
	defer func() { inst.teardown() }()
	pin := "unpinned seed"
	if _, ok := sp.streamHash[o.seed]; ok && o.scale == 1 {
		pin = "matches the pinned hash"
	}
	logf("inputs: stream_hash %s (%s), warm-up %d ops", inst.streamHash, pin, inst.warmupOps)

	ops := timedOpsFor(o)
	tm, err := inst.measure(ops, nil)
	if err != nil {
		return result{}, err
	}
	wallS := float64(tm.wallNs) / 1e9
	logf("timed: %d ops in %.2f s; the op count was calibrated on seed 1 to take %d s", tm.ops, wallS, o.seconds)

	ck := new(checker)
	fin, err := inst.finish(ck, tm)
	if err != nil {
		return result{}, err
	}

	var p50s, p99s []float64
	for _, h := range tm.slices {
		p50s = append(p50s, h.quantile(0.50)/1e3)
		p99s = append(p99s, h.quantile(0.99)/1e3)
	}
	res := result{Correct: ck.ok(), Attempted: fin.attempted, Failed: fin.failed, Metrics: map[string]value{}}
	put := func(name string, v float64, samples string) {
		d := e2eDef(name)
		res.Metrics[name] = value{Value: v, Unit: d.unit}
		logf("metric %-18s %14.4f %-4s bound %2.0f%%  n=%s  (%s)", name, v, d.unit, d.bound*100, samples, d.how)
	}
	put("setup_s", median(setups), fmt.Sprint(len(setups)))
	put("throughput_ops_s", median(tm.sliceOpsPerS), fmt.Sprintf("%dx%d", len(tm.sliceOpsPerS), tm.ops/slices))
	put("cpu_us_per_op", median(tm.sliceCPUUs), fmt.Sprintf("%dx%d", len(tm.sliceCPUUs), tm.ops/slices))
	put("op_p50_us", median(p50s), fmt.Sprintf("%dx%d", slices, tm.ops/slices))
	put("heap_mb", fin.heap/1e6, "1")
	put("store_b_per_key", (fin.heap+float64(fin.fileBytes))/float64(fin.keys), "1")
	logf("ungated: op_p99_us %.1f (median of %d slices), whole-run p99.9 %.1f us, max %.1f us, %.0f ops/s, %.4f us CPU/op, gc_cpu_share %.4f, set-ups %.2f s",
		median(p99s), slices, tm.total.quantile(0.999)/1e3, tm.total.max()/1e3, float64(tm.ops)/wallS, tm.cpuUs/float64(tm.ops), tm.gcShare, setups)
	logf("slices: kops/s %.0f", scaled(tm.sliceOpsPerS, 1e-3))
	logf("slices: cpu ns/op %.0f", scaled(tm.sliceCPUUs, 1e3))
	logf("slices: p99 us %.0f", p99s)
	logf("ops: attempted %d, failed %d (%.4f%%)", fin.attempted, fin.failed, 100*float64(fin.failed)/float64(max(fin.attempted, 1)))
	return res, nil
}

// finished is what finish measured after the load stopped.
type finished struct {
	heap              float64 // live heap bytes after GC, load generator dropped
	fileBytes         int64   // disk: bytes under the data dir after a clean close
	keys              int     // live keys in the server
	attempted, failed int64
}

// finish checks the run's outputs and takes the end-of-run measurements:
// read-back and Little's law on the live server, then a clean drain, the
// key count, the heap, and on the disk engine a close, the file sizes and
// a reopen from the files. The instance is stopped afterwards.
func (inst *instance) finish(ck *checker, tm *timed) (fin finished, err error) {
	samples := inst.verifyServed(ck, tm)
	if err := inst.stop(); err != nil {
		return fin, err
	}
	want := inst.expectedLen()
	fin.keys = inst.srv.Len()
	ck.check(fin.keys == want, "server holds %d keys, acked puts and deletes imply %d", fin.keys, want)
	for _, lc := range inst.conns {
		fin.attempted += lc.attempted
		fin.failed += lc.failed
	}

	// Heap: what the server keeps, not what the load generator keeps.
	inst.conns = nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fin.heap = float64(ms.HeapAlloc)

	if inst.sp.disk {
		if err := inst.srv.Close(); err != nil {
			return fin, fmt.Errorf("close: %w", err)
		}
		if fin.fileBytes, err = dirBytes(inst.dataDir); err != nil {
			return fin, err
		}
		inst.verifyRestart(ck, samples, want)
		logf("disk: cache %d nodes; %d keys in %.1f MB of files after a clean close; latencies are this sandbox's page cache, not a device's",
			inst.diskCfg.CacheNodes, fin.keys, float64(fin.fileBytes)/1e6)
	}
	return fin, nil
}
