package cbtree

import (
	"testing"
	"unsafe"
)

// Allocation regression tests. The whole point of version-validated
// latch-free reads is a cheaper steady-state get, and of in-place writes
// a cheaper put: an operation that allocates would hand that win
// straight back to the garbage collector. Under OLC the point lookup,
// the leaf-chain scan and seek must stay at zero allocations per
// operation, including their restart bookkeeping; under every algorithm
// so must a write that does not split, from the first one on: a leaf
// owns all its slots from birth and the ancestor stack rides on the
// descent's own stack frame.

// TestNodeSize pins what every node of every tree costs before its keys:
// 112 bytes of fields on top of lock.VersionLock (TestLockSize there). At
// 224 bytes a node fills its allocator size class exactly; one more word
// and it pays for the 240-byte class, two more and for the 256-byte one —
// on every node, which BENCHMARK.json bounds as heap_mb and store_b_per_key.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got > 224 {
		t.Errorf("node is %d bytes, want <= 224: check lock.FCFSRWMutex and the field order", got)
	}
}

func allocTree(t *testing.T, alg Algorithm, n int) *Tree {
	t.Helper()
	keys := make([]int64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = int64(i) * 3
		vals[i] = uint64(i)
	}
	tr, err := BulkLoad(16, alg, keys, vals, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestOLCSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tr := allocTree(t, OLC, 10000)
	key := int64(0)
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := tr.Search(key); !ok {
			t.Fatalf("key %d missing", key)
		}
		key = (key + 3003) % 30000
	}); n != 0 {
		t.Errorf("OLC Search: %v allocs/op, want 0", n)
	}
}

func TestOLCRangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tr := allocTree(t, OLC, 10000)
	lo := int64(0)
	count := 0
	fn := func(k int64, v uint64) bool {
		count++
		return true
	}
	if n := testing.AllocsPerRun(200, func() {
		count = 0
		tr.Range(lo, lo+300, fn)
		if count == 0 {
			t.Fatalf("empty scan at lo=%d", lo)
		}
		lo = (lo + 2997) % 29000
	}); n != 0 {
		t.Errorf("OLC Range: %v allocs/op, want 0", n)
	}
}

func TestOLCSearchGEAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tr := allocTree(t, OLC, 10000)
	key := int64(1)
	if n := testing.AllocsPerRun(200, func() {
		if _, _, ok := tr.SearchGE(key); !ok {
			t.Fatalf("no key >= %d", key)
		}
		key = (key + 3003) % 29000
	}); n != 0 {
		t.Errorf("OLC SearchGE: %v allocs/op, want 0", n)
	}
}

func TestWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, alg := range algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			// 11 keys per 16-slot leaf, so a leaf spans 33 key values: the
			// new keys below, 150 apart (and never a multiple of 3), each
			// land in a leaf of their own and none of them splits it.
			tr := allocTree(t, alg, 10000)
			each := func(what string, want bool, op func(key int64) bool) {
				t.Helper()
				key := int64(1)
				if n := testing.AllocsPerRun(200, func() {
					if op(key) != want {
						t.Fatalf("%s(%d) = %v", what, key, !want)
					}
					key += 150
				}); n != 0 {
					t.Errorf("%s: %v allocs/op, want 0", what, n)
				}
			}
			insert := func(key int64) bool { return tr.Insert(key, 7) }
			splits := tr.Stats().Splits
			each("Insert (new key, no split)", true, insert)
			if got := tr.Stats().Splits; got != splits {
				t.Fatalf("%d splits during the no-split insert run", got-splits)
			}
			each("Insert (overwrite)", false, insert)
			each("Delete", true, tr.Delete)
			if tr.Delete(2) {
				t.Fatal("deleted an absent key")
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
