package cbtree

import (
	"testing"

	"btreeperf/internal/xrand"
)

// The in-memory tree's tracked benchmarks (scripts/bench.sh writes them to
// results/BENCH_cbtree.json): each operation, one goroutine, against a
// bulk-loaded tree of every algorithm at the serving capacity, so what
// differs between the four sub-benchmarks of one operation is the locking
// protocol and nothing else.

const (
	benchKeys = 200000 // stored keys are 0, 10, 20, …
	benchCap  = 64
)

func benchTree(b *testing.B, alg Algorithm) *Tree { return benchTreeOf(b, alg, benchCap, benchKeys) }

// benchTreeOf bulk-loads n keys, 0, 10, 20, …, at capacity cap and the
// serving fill.
func benchTreeOf(b *testing.B, alg Algorithm, cap, n int) *Tree {
	b.Helper()
	keys := make([]int64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i], vals[i] = int64(i)*10, uint64(i)
	}
	tr, err := BulkLoad(cap, alg, keys, vals, 0.69)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func benchAlgorithms(b *testing.B, run func(b *testing.B, tr *Tree, src *xrand.Source)) {
	benchAlgorithmsOf(b, benchCap, benchKeys, run)
}

func benchAlgorithmsOf(b *testing.B, cap, n int, run func(b *testing.B, tr *Tree, src *xrand.Source)) {
	for _, alg := range algorithms {
		b.Run(alg.String(), func(b *testing.B) {
			tr := benchTreeOf(b, alg, cap, n)
			b.ReportAllocs()
			b.ResetTimer()
			run(b, tr, xrand.New(1))
		})
	}
}

func BenchmarkTreeSearch(b *testing.B) { benchSearch(b, benchCap, benchKeys) }

// Search1M is Search on a million keys, about 23,000 leaves and 26 MB of
// nodes: most of a descent's levels miss the cache, so its ns/op prices
// the node layout a lone descent walks.
func BenchmarkTreeSearch1M(b *testing.B) { benchSearch(b, benchCap, 1000000) }

// SearchFat is Search on 30,000 keys in one leaf of capacity 65,536, the
// fat-root configuration (EXPERIMENTS.md "Shed vs collapse"): each
// search halves the leaf by probes down to blink.ScanRun keys, then
// scans them.
func BenchmarkTreeSearchFat(b *testing.B) { benchSearch(b, 65536, 30000) }

func benchSearch(b *testing.B, cap, n int) {
	benchAlgorithmsOf(b, cap, n, func(b *testing.B, tr *Tree, src *xrand.Source) {
		for i := 0; i < b.N; i++ {
			if _, ok := tr.Search(src.Int63n(int64(n)) * 10); !ok {
				b.Fatal("a stored key is missing")
			}
		}
	})
}

// Locate is BenchmarkTreeSearch a group at a time, the way a served
// batch is located: groups of 32 uniform keys, each group's descents side
// by side, then every key answered from its hint. ns/op is per key, so
// the OLC line reads against BenchmarkTreeSearch/olc; the three locking
// algorithms leave the hints empty and search from the root.
func BenchmarkTreeLocate(b *testing.B) {
	const group = 32
	benchAlgorithms(b, func(b *testing.B, tr *Tree, src *xrand.Source) {
		var keys [group]int64
		var at [group]Hint
		for i := 0; i < b.N; i += group {
			for k := range keys {
				keys[k] = src.Int63n(benchKeys) * 10
			}
			tr.Locate(keys[:], at[:])
			for k, key := range keys {
				if _, ok := tr.SearchAt(key, &at[k]); !ok {
					b.Fatal("a stored key is missing")
				}
			}
		}
	})
}

// Insert adds one new key between every two stored ones, in a scattered
// order, so each leaf of the .69-full tree fills and splits once per
// pass; after each pass the tree is rebuilt off the clock, which keeps
// the splits' share of an op — its B/op — the same however long the
// benchmark runs.
func BenchmarkTreeInsert(b *testing.B) {
	benchAlgorithms(b, func(b *testing.B, tr *Tree, src *xrand.Source) {
		for i := 0; i < b.N; i++ {
			k := int64(i)*7919%benchKeys*10 + 5 // 7919 is coprime to benchKeys
			if !tr.Insert(k, uint64(i)) {
				b.Fatal("a new key was already stored: ", k)
			}
			if i%benchKeys == benchKeys-1 {
				b.StopTimer()
				tr = benchTree(b, tr.Algorithm())
				b.StartTimer()
			}
		}
	})
}

// Delete removes stored keys in a scattered order; each time it has been
// through all of them the tree is refilled off the clock.
func BenchmarkTreeDelete(b *testing.B) {
	benchAlgorithms(b, func(b *testing.B, tr *Tree, src *xrand.Source) {
		for i := 0; i < b.N; i++ {
			k := int64(i) * 7919 % benchKeys * 10
			if !tr.Delete(k) {
				b.Fatal("a stored key is missing: ", k)
			}
			if i%benchKeys == benchKeys-1 {
				b.StopTimer()
				for j := int64(0); j < benchKeys; j++ {
					tr.Insert(j*10, uint64(j))
				}
				b.StartTimer()
			}
		}
	})
}

// RangeLeaves is one scan of 100 consecutive stored keys from a uniformly
// drawn start: a descent, then two or three leaves' runs.
func BenchmarkTreeRangeLeaves(b *testing.B) {
	benchAlgorithms(b, func(b *testing.B, tr *Tree, src *xrand.Source) {
		got := 0
		fn := func(keys []int64, _ []uint64) bool {
			got += len(keys)
			return true
		}
		for i := 0; i < b.N; i++ {
			lo := src.Int63n(benchKeys-100) * 10
			tr.RangeLeaves(lo, lo+999, fn)
		}
		b.ReportMetric(float64(got)/float64(b.N), "keys/op")
	})
}
