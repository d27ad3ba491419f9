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

func benchTree(b *testing.B, alg Algorithm) *Tree {
	b.Helper()
	keys := make([]int64, benchKeys)
	vals := make([]uint64, benchKeys)
	for i := range keys {
		keys[i], vals[i] = int64(i)*10, uint64(i)
	}
	tr, err := BulkLoad(benchCap, alg, keys, vals, 0.69)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func benchAlgorithms(b *testing.B, run func(b *testing.B, tr *Tree, src *xrand.Source)) {
	for _, alg := range algorithms {
		b.Run(alg.String(), func(b *testing.B) {
			tr := benchTree(b, alg)
			b.ReportAllocs()
			b.ResetTimer()
			run(b, tr, xrand.New(1))
		})
	}
}

func BenchmarkTreeSearch(b *testing.B) {
	benchAlgorithms(b, func(b *testing.B, tr *Tree, src *xrand.Source) {
		for i := 0; i < b.N; i++ {
			if _, ok := tr.Search(src.Int63n(benchKeys) * 10); !ok {
				b.Fatal("a stored key is missing")
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
