package cbtree

import (
	"math"
	"math/rand"
	"testing"

	"btreeperf/internal/blink"
)

// TestSearchPathEquivalence runs an identical randomized workload through
// a capacity-8 tree (every node searched by a forward scan alone) and a
// capacity-256 tree (nodes above blink.ScanRun, so the search halves
// them first) and checks that every operation's result agrees: an
// end-to-end check, under each algorithm, that the halving phase routes
// and finds keys as the scan does.
func TestSearchPathEquivalence(t *testing.T) {
	for _, alg := range []Algorithm{LockCoupling, Optimistic, LinkType, OLC} {
		t.Run(alg.String(), func(t *testing.T) {
			small := New(8, alg)
			large := New(256, alg)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 20000; i++ {
				key := int64(rng.Intn(3000))
				switch rng.Intn(4) {
				case 0, 1:
					v1, ok1 := small.Search(key)
					v2, ok2 := large.Search(key)
					if v1 != v2 || ok1 != ok2 {
						t.Fatalf("op %d: Search(%d) = (%d,%v) vs (%d,%v)", i, key, v1, ok1, v2, ok2)
					}
				case 2:
					val := rng.Uint64()
					if r1, r2 := small.Insert(key, val), large.Insert(key, val); r1 != r2 {
						t.Fatalf("op %d: Insert(%d) = %v vs %v", i, key, r1, r2)
					}
				default:
					if r1, r2 := small.Delete(key), large.Delete(key); r1 != r2 {
						t.Fatalf("op %d: Delete(%d) = %v vs %v", i, key, r1, r2)
					}
				}
			}
			if small.Len() != large.Len() {
				t.Fatalf("final Len: %d vs %d", small.Len(), large.Len())
			}
		})
	}
}

// TestSearchAtomicMatchesLowerBound: the latch-free reader's search is
// blink.LowerBound over atomic loads, on node sizes either side of
// blink.ScanRun and on repeated keys.
func TestSearchAtomicMatchesLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for size := 0; size <= 300; size++ {
		keys := make([]int64, size)
		for i := 1; i < size; i++ {
			keys[i] = keys[i-1] + int64(rng.Intn(3))
		}
		for k := int64(-1); size == 0 || k <= keys[size-1]+1; k++ {
			if got, want := searchAtomic(keys, k), blink.LowerBound(keys, k); got != want {
				t.Fatalf("size %d: searchAtomic(%d) = %d, want %d", size, k, got, want)
			}
			if size == 0 {
				break
			}
		}
	}
}

// TestSearchExtremeKeys: a search for either int64 extreme reaches the
// leaf that holds it straight down a quiescent tree, with no right link
// crossed. blink.Route and the latch-free route both search for key+1,
// which would wrap at MaxInt64 and route it into the leftmost child.
func TestSearchExtremeKeys(t *testing.T) {
	for _, alg := range []Algorithm{LockCoupling, Optimistic, LinkType, OLC} {
		tr := New(4, alg)
		for k := int64(-100); k <= 100; k++ {
			tr.Insert(k, uint64(k+1000))
		}
		tr.Insert(math.MinInt64, 1)
		tr.Insert(math.MaxInt64, 2)
		before := tr.Stats().Crossings
		for k, want := range map[int64]uint64{math.MinInt64: 1, math.MaxInt64: 2, 100: 1100} {
			if v, ok := tr.Search(k); !ok || v != want {
				t.Errorf("%v: Search(%d) = %d, %v; want %d", alg, k, v, ok, want)
			}
		}
		if got := tr.Stats().Crossings - before; got != 0 || tr.Height() < 3 {
			t.Errorf("%v: %d right links crossed on a quiescent tree of height %d", alg, got, tr.Height())
		}
	}
}
