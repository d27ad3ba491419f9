package diskbtree

import (
	"path/filepath"
	"testing"
	"unsafe"
)

// Allocation regression tests. A buffer-pool slot is permanent and every
// step of an operation — descent, miss, eviction with write-back, insert,
// split, oplog append — works in storage that already exists, so a
// warmed-up operation on a tree several times its pool allocates nothing.

// TestFrameSize pins the slot header's size: the pool's memory is
// capacity × (16 bytes per item + this), and BENCHMARK.json bounds it.
func TestFrameSize(t *testing.T) {
	if got := unsafe.Sizeof(frame{}); got != 72 {
		t.Errorf("frame header is %d bytes, want 72: check the field order", got)
	}
}

// spillTree bulk-loads n keys (key 10·i → value i) into a durable tree
// whose pool holds a fifth of its nodes and touches every leaf once, so
// the pool is full, the page buffers exist, and the oplog tail has grown.
func spillTree(t *testing.T, n int) *Tree {
	t.Helper()
	const cap = 16
	keys := make([]int64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i], vals[i] = int64(i)*10, uint64(i)
	}
	nodes := n * 10 / (cap * 7) // at fill 0.7, plus the upper levels
	tr, err := BulkLoad(filepath.Join(t.TempDir(), "tree.db"),
		Options{Cap: cap, CacheNodes: nodes / 5, Durable: true}, keys, vals, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	for i := 0; i < n; i += 4 {
		if _, err := tr.Insert(int64(i)*10, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := tr.CacheStats(); st.Evictions == 0 || st.Resident != st.Capacity {
		t.Fatalf("pool not under pressure: %+v", st)
	}
	return tr
}

func TestOperationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 20000
	tr := spillTree(t, n)
	// A stride coprime to n walks the key space in an order the LRU pool
	// cannot keep up with: most operations miss, most misses write back.
	i := 0
	next := func() int64 { i = (i + 7919) % n; return int64(i) * 10 }
	check := func(what string, minMisses int64, f func()) {
		t.Helper()
		i = 0 // every check walks the same keys
		m0 := tr.CacheStats().Misses
		if a := testing.AllocsPerRun(2000, f); a != 0 {
			t.Errorf("%s: %v allocs/op, want 0", what, a)
		}
		if got := tr.CacheStats().Misses - m0; got < minMisses {
			t.Errorf("%s: only %d misses in 2000 ops: the pool is not spilling", what, got)
		}
		if err := tr.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	check("Search", 500, func() {
		if _, ok, err := tr.Search(next()); err != nil || !ok {
			t.Fatalf("Search: %v %v", ok, err)
		}
	})
	check("Insert (overwrite)", 500, func() {
		if fresh, err := tr.Insert(next(), 1); err != nil || fresh {
			t.Fatalf("overwrite: %v %v", fresh, err)
		}
	})
	check("Insert (new key)", 500, func() {
		if fresh, err := tr.Insert(next()+1, 2); err != nil || !fresh {
			t.Fatalf("new key: %v %v", fresh, err)
		}
	})
	check("Delete", 500, func() {
		if ok, err := tr.Delete(next() + 1); err != nil || !ok {
			t.Fatalf("Delete: %v %v", ok, err)
		}
	})
	// Nine keys into one gap of ten overflow any leaf: every fifth insert
	// or so splits, and some splits climb. The run of nine shares a leaf,
	// so fewer of these miss.
	s0, _ := tr.Stats()
	j := 0
	check("Insert (splitting)", 100, func() {
		j++
		if _, err := tr.Insert(int64(j/9)*10*37%(n*10)+int64(j%9)+1, 3); err != nil {
			t.Fatal(err)
		}
	})
	if s1, _ := tr.Stats(); s1-s0 < 100 {
		t.Errorf("only %d splits in 2000 inserts", s1-s0)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
