package cbtree

import "testing"

// Allocation regression tests for OLC. The whole point of
// version-validated latch-free reads is a cheaper steady-state get, and
// of in-place writes a cheaper put: an operation that allocates would
// hand that win straight back to the garbage collector. The point
// lookup, the leaf-chain scan and seek, and every write that does not
// split must stay at zero allocations per operation, including their
// restart bookkeeping.

func olcAllocTree(t *testing.T, n int) *Tree {
	t.Helper()
	keys := make([]int64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = int64(i) * 3
		vals[i] = uint64(i)
	}
	tr, err := BulkLoad(16, OLC, keys, vals, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestOLCSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tr := olcAllocTree(t, 10000)
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
	tr := olcAllocTree(t, 10000)
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
	tr := olcAllocTree(t, 10000)
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

func TestOLCWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// 11 keys per 16-slot leaf, so a leaf spans 33 key values: the new
	// keys below, 150 apart, each land in a leaf of their own and none
	// of them splits it.
	tr := olcAllocTree(t, 10000)
	splits := tr.Stats().Splits
	key := int64(1)
	if n := testing.AllocsPerRun(200, func() {
		if !tr.Insert(key, 7) {
			t.Fatalf("key %d already present", key)
		}
		key += 150
	}); n != 0 {
		t.Errorf("OLC Insert (new key, no split): %v allocs/op, want 0", n)
	}
	if got := tr.Stats().Splits; got != splits {
		t.Fatalf("%d splits during the no-split insert run", got-splits)
	}
	key = 1
	if n := testing.AllocsPerRun(200, func() {
		if tr.Insert(key, 8) {
			t.Fatalf("key %d was absent", key)
		}
		key += 150
	}); n != 0 {
		t.Errorf("OLC Insert (overwrite): %v allocs/op, want 0", n)
	}
	key = 1
	if n := testing.AllocsPerRun(200, func() {
		if !tr.Delete(key) {
			t.Fatalf("key %d missing", key)
		}
		key += 150
	}); n != 0 {
		t.Errorf("OLC Delete: %v allocs/op, want 0", n)
	}
	if tr.Delete(2) {
		t.Fatal("deleted an absent key")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
