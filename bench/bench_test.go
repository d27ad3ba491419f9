package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// testScale shrinks every workload 200-fold: 5,000 prefilled keys and a
// few tens of thousands of ops, so all four run in seconds.
const testScale = 200

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go and
// workloads.go are what the harness emits. They must say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, harness calibrated for %d", bj.RunSeconds, runSeconds)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec has %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if len(bj.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in e2eMetrics", len(bj.EndToEnd), len(e2eMetrics))
	}
	for i, m := range bj.EndToEnd {
		d := e2eMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, table %+v", i, m, d)
		}
		if m.Bound > 0.25 || m.Bound > e2eDef("setup_s").bound {
			t.Errorf("%s: bound %v above the contract's 0.25 or above setup_s's, which must be the largest", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in layerMetrics", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range bj.PerLayer {
		d := layerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, table %+v", i, m, d)
		}
	}
}

func checkMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct {
		t.Error("output checks failed")
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: not emitted", d.name)
		case v.Unit != d.unit:
			t.Errorf("%s: unit %q, declared %q", d.name, v.Unit, d.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %v", d.name, v.Value)
		}
	}
}

// Every workload, plain and traced, at 1/200 scale: every declared metric
// is emitted once, finite, with its unit; the trace file parses and every
// span's parent is in it.
func TestWorkloadsAtSmallScale(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			o := options{sp: sp, seed: 1, seconds: runSeconds, scale: testScale, outDir: t.TempDir()}
			res, err := runPlain(o)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, e2eMetrics)
			for _, d := range e2eMetrics {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never 0", d.name, res.Metrics[d.name].Value)
				}
			}

			res, err = runTraced(o)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, layerMetrics)
			raw, err := os.ReadFile(tracePath(o))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatalf("trace file: %v", err)
			}
			ids := map[int64]bool{}
			for _, s := range tf.Spans {
				if ids[s[0]] {
					t.Fatalf("span id %d twice", s[0])
				}
				ids[s[0]] = true
			}
			seen := map[string]int{}
			for _, s := range tf.Spans {
				if s[1] != 0 && !ids[s[1]] {
					t.Fatalf("span %d: parent %d is not in the trace", s[0], s[1])
				}
				if s[3] < 0 || int(s[3]) >= len(tf.Names) || s[5] < s[4] {
					t.Fatalf("span %v: bad name index or end before start", s)
				}
				seen[tf.Names[s[3]]]++
			}
			for _, name := range burstSpanNames {
				if seen[name] == 0 || seen[name] != seen["client.burst"] {
					t.Errorf("%d %s spans for %d bursts", seen[name], name, seen["client.burst"])
				}
			}
			for _, name := range []string{"replay.cbtree", "replay.cbtree.search", "replay.diskbtree.spill", "replay.journal.commit", "replay.query.merge_page"} {
				if seen[name] == 0 {
					t.Errorf("no %s span", name)
				}
			}
			if len(tf.MetricsStart) == 0 || len(tf.MetricsEnd) == 0 || !strings.Contains(tf.ModelEnd, "qmodel") {
				t.Error("server scrapes missing from the trace file")
			}
		})
	}
}

// The single-threaded replay's counts — allocations, splits, page reads
// and writes, fsyncs, cache hits — repeat exactly.
func TestReplayCountsRepeat(t *testing.T) {
	for _, name := range []string{"mem-paper-olc", "disk-spill-paper"} {
		sp, err := findSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		var runs [2]string
		for i := range runs {
			o := options{sp: sp, seed: 1, seconds: runSeconds, scale: testScale, outDir: t.TempDir()}
			rp, err := newReplay(o, newRecorder())
			if err != nil {
				t.Fatal(err)
			}
			err = rp.run()
			rp.close()
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = strings.Join(rp.counts, " ")
		}
		if runs[0] != runs[1] {
			t.Errorf("%s: replay counts differ between two runs:\n%s\n%s", name, runs[0], runs[1])
		}
	}
}

func TestStreamPin(t *testing.T) {
	sp := &spec{name: "x", streamHash: map[uint64]string{1: "00000000deadbeef"}}
	if err := sp.checkPin(1, 1, "00000000deadbeef"); err != nil {
		t.Errorf("matching hash refused: %v", err)
	}
	if err := sp.checkPin(1, 1, "0000000000000001"); err == nil {
		t.Error("a changed stream was accepted")
	}
	if err := sp.checkPin(7, 1, "0000000000000001"); err != nil {
		t.Errorf("unpinned seed refused: %v", err)
	}
	if err := sp.checkPin(1, testScale, "0000000000000001"); err != nil {
		t.Errorf("scaled-down run refused: %v", err)
	}
	for _, sp := range specs {
		for _, seed := range []uint64{1, 2} {
			if sp.streamHash[seed] == "" {
				t.Errorf("%s: seed %d is not pinned", sp.name, seed)
			}
		}
	}
}

func TestHistogram(t *testing.T) {
	for i := 1; i < histBuckets-1; i++ {
		lo, hi := histLower(i), histLower(i+1)
		if histIndex(lo) != i || histIndex(hi-1) != i {
			t.Fatalf("bucket %d [%d, %d) does not hold its own edges", i, lo, hi)
		}
		if lo >= histSub && float64(hi-lo)/float64(lo) > 0.01 {
			t.Fatalf("bucket %d [%d, %d) is wider than 1%%", i, lo, hi)
		}
	}
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.record(v * 1000)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		got, want := h.quantile(q), q*1e8
		if math.Abs(got/want-1) > 0.01 {
			t.Errorf("q%v = %v, want %v within 1%%", q, got, want)
		}
	}
	if got := h.mean(); math.Abs(got/50000500-1) > 0.01 {
		t.Errorf("mean %v, want 50000500 within 1%%", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 2, 8, 4, 9, 5, 6}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
