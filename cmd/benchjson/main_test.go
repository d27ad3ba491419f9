package main

import (
	"io"
	"strings"
	"testing"
)

func TestCompareGatesAllocsOnly(t *testing.T) {
	bm := func(name string, allocs, bytes float64) benchmark {
		return benchmark{Name: name, Metrics: map[string]float64{"allocs/op": allocs, "B/op": bytes}}
	}
	base := report{Benchmarks: []benchmark{bm("A", 0, 100), bm("B", 19, 100), bm("C", 2, 100), bm("Gone", 1, 1)}}
	cur := report{Benchmarks: []benchmark{bm("A", 0, 900), bm("B", 3, 50), bm("C", 3, 100), bm("New", 5, 1)}}
	var out strings.Builder
	rose, missing := compare(&out, base, cur)
	if rose != 1 {
		t.Fatalf("compare reported %d risen benchmarks, want 1 (C); A's ninefold B/op must not gate:\n%s", rose, out.String())
	}
	if missing != 1 {
		t.Fatalf("compare reported %d baseline benchmarks missing, want 1 (Gone): a benchmark that stopped running must fail the gate:\n%s", missing, out.String())
	}
	if _, missing := compare(io.Discard, cur, cur); missing != 0 {
		t.Errorf("a report compared with itself lacks %d benchmarks", missing)
	}
	for _, want := range []string{"100 -> 900", "100 -> 50", "ROSE", "only in new", "only in base  MISSING"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Count(out.String(), "ROSE") != 1 {
		t.Errorf("more than one ROSE line:\n%s", out.String())
	}
}

func TestTrackedUnits(t *testing.T) {
	for unit, want := range map[string]bool{
		"allocs/op": true, "B/op": true, "keys/op": true, "ops/fsync": true,
		"ns/op": false, "MB/s": false, "p50_us": false, "p99_us": false,
	} {
		if tracked(unit) != want {
			t.Errorf("tracked(%q) = %v: the tracked JSON keeps counts per op and leaves timings to the raw text", unit, !want)
		}
	}
}
