package cbtree

import (
	"runtime"
	"testing"
	"unsafe"
)

// Allocation regression tests. The whole point of version-validated
// latch-free reads is a cheaper steady-state get, and of in-place writes
// a cheaper put: an operation that allocates would hand that win
// straight back to the garbage collector. Under OLC the point lookup,
// the leaf-chain scan and seek must stay at zero allocations per
// operation, including their restart bookkeeping; under every algorithm
// so must a write that does not split, from the first one on, and a
// located one (Locate, then the hinted call): a leaf owns all its slots
// from birth and the ancestor stack rides on the descent's own stack
// frame or in the hint.

// TestNodeSize pins what a node costs the heap: one allocation of a
// 120-byte header (mu, a lock.VersionLock, is 88 of them: TestLockSize
// there) and its keys and values or children inline. At the serving
// capacity that is 120 + 64·8 + 64·8 = 1,144 bytes, plus the 8-byte type
// header the allocator gives an object over 512 bytes with pointers in
// it: 1,152, one size class exactly. One more header word and every node
// pays for the 1,280-byte class, which BENCHMARK.json bounds as heap_mb
// and store_b_per_key. The bytes are measured, not computed, so whatever
// the allocator adds shows.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got > 120 {
		t.Errorf("node header is %d bytes, want <= 120: check lock.FCFSRWMutex and the field order", got)
	}
	const count = 4096
	tr := New(64, OLC)
	for _, level := range []int{1, 2} {
		nodes := make([]*node, count)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range nodes {
			nodes[i] = tr.newNode(level)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / count; per > 1152 {
			t.Errorf("a cap-64 level-%d node costs %d bytes, want <= 1152", level, per)
		}
		runtime.KeepAlive(nodes)
	}
}

// TestSplitAllocs: a leaf split allocates its new sibling and nothing
// else, and a lend to a right neighbour nothing at all, under every
// algorithm. The parent has room, so it takes the new entry (or the
// lowered router) in place: an inner insert that does not split
// allocates nothing, having nothing to republish.
func TestSplitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, alg := range algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			// 11 keys per 16-slot leaf and 11 children per parent; leaf j
			// holds 33j..33j+30. fill puts five new keys into leaf j, which
			// fills it to capacity, and a sixth if over.
			tr := allocTree(t, alg, 10000)
			fill := func(j int64, over bool) {
				last := j*33 + 13
				if over {
					last += 3
				}
				for k := j*33 + 1; k <= last; k += 3 {
					if !tr.Insert(k, 7) {
						t.Fatalf("Insert(%d) found the key already there", k)
					}
				}
			}
			height, st := tr.Height(), tr.Stats()
			// Each run fills leaf 50·r and its right neighbour, then
			// splits the leaf: every run's leaf has a parent of its own,
			// which has room.
			leaf := int64(0)
			if n := testing.AllocsPerRun(15, func() {
				fill(leaf+1, false)
				fill(leaf, true)
				leaf += 50
			}); n != 1 {
				t.Errorf("a leaf split: %v allocs/op, want 1 (the new leaf)", n)
			}
			if got := tr.Stats(); got.Splits-st.Splits != 16 || got.Lends != st.Lends || tr.Height() != height {
				t.Errorf("%d splits, %d lends and height %d -> %d, want one leaf split per run",
					got.Splits-st.Splits, got.Lends-st.Lends, height, tr.Height())
			}
			// Each run overfills leaf 22+55·r, a parent's first child
			// (j%11 == 0) whose neighbour has room: a lend.
			leaf, st = 22, tr.Stats()
			if n := testing.AllocsPerRun(15, func() {
				fill(leaf, true)
				leaf += 55
			}); n != 0 {
				t.Errorf("a lend: %v allocs/op, want 0", n)
			}
			if got := tr.Stats(); got.Lends-st.Lends != 16 || got.Splits != st.Splits {
				t.Errorf("%d lends and %d splits, want one lend per run", got.Lends-st.Lends, got.Splits-st.Splits)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
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
			// The same keys again, each located first (a group of one):
			// Locate and the hinted calls (under OLC the hints are full,
			// under the locking algorithms empty).
			keys, at := make([]int64, 1), make([]Hint, 1)
			located := func(op func(key int64, h *Hint) bool) func(int64) bool {
				return func(key int64) bool {
					keys[0] = key
					tr.Locate(keys, at)
					if alg == OLC && at[0].leaf == nil {
						t.Fatalf("Locate(%d) left an OLC hint empty", key)
					}
					return op(key, &at[0])
				}
			}
			insertAt := located(func(k int64, h *Hint) bool { return tr.InsertAt(k, 7, h) })
			each("Locate+InsertAt (new key, no split)", true, insertAt)
			if got := tr.Stats().Splits; got != splits {
				t.Fatalf("%d splits during the no-split insert run", got-splits)
			}
			each("Locate+InsertAt (overwrite)", false, insertAt)
			each("Locate+SearchAt", true, located(func(k int64, h *Hint) bool {
				_, ok := tr.SearchAt(k, h)
				return ok
			}))
			each("Locate+DeleteAt", true, located(tr.DeleteAt))
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
