package diskbtree

import (
	"path/filepath"
	"testing"

	"btreeperf/internal/xrand"
)

// The disk tree's tracked benchmarks (scripts/bench.sh writes them to
// results/BENCH_storage.json): each point operation against a bulk-loaded
// tree whose pool holds all of it (fit) or a fifth of it (spill), so the
// cost of a miss — claim, write-back, read, decode — is the difference
// between the two. Trees are not durable: the oplog has benchmarks of its
// own.

const benchKeys = 200000 // stored keys are 0, 10, 20, …

func benchTree(b *testing.B, spill bool) *Tree {
	b.Helper()
	keys := make([]int64, benchKeys)
	vals := make([]uint64, benchKeys)
	for i := range keys {
		keys[i], vals[i] = int64(i)*10, uint64(i)
	}
	nodes := benchKeys * 100 / (128 * 69) // leaves at fill .69; the levels above add 1 %
	pool := 2 * nodes
	if spill {
		pool = nodes / 5
	}
	tr, err := BulkLoad(filepath.Join(b.TempDir(), "tree.db"), Options{CacheNodes: pool}, keys, vals, 0.69)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { tr.Close() })
	return tr
}

func benchPools(b *testing.B, run func(b *testing.B, tr *Tree, src *xrand.Source)) {
	for _, spill := range []bool{false, true} {
		name := "fit"
		if spill {
			name = "spill"
		}
		b.Run(name, func(b *testing.B) {
			tr := benchTree(b, spill)
			src := xrand.New(1)
			for i := 0; i < benchKeys/4; i++ { // warm the pool with the access pattern
				if _, _, err := tr.Search(src.Int63n(benchKeys) * 10); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			run(b, tr, src)
		})
	}
}

func BenchmarkDiskTreeSearch(b *testing.B) {
	benchPools(b, func(b *testing.B, tr *Tree, src *xrand.Source) {
		for i := 0; i < b.N; i++ {
			if _, ok, err := tr.Search(src.Int63n(benchKeys) * 10); err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
}

// Insert stores uniformly drawn keys of which half exist at the start, so
// the loop mixes overwrites, fresh inserts and, as leaves fill, splits.
func BenchmarkDiskTreeInsert(b *testing.B) {
	benchPools(b, func(b *testing.B, tr *Tree, src *xrand.Source) {
		for i := 0; i < b.N; i++ {
			if _, err := tr.Insert(src.Int63n(2*benchKeys)*5, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Delete removes stored keys in a scattered order; each time it has been
// through all of them the tree is refilled off the clock.
func BenchmarkDiskTreeDelete(b *testing.B) {
	benchPools(b, func(b *testing.B, tr *Tree, src *xrand.Source) {
		for i := 0; i < b.N; i++ {
			k := int64(i) * 7919 % benchKeys * 10 // 7919 is coprime to benchKeys
			if ok, err := tr.Delete(k); err != nil || !ok {
				b.Fatal(k, ok, err)
			}
			if i%benchKeys == benchKeys-1 {
				b.StopTimer()
				for j := int64(0); j < benchKeys; j++ {
					if _, err := tr.Insert(j*10, uint64(j)); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
		}
	})
}
