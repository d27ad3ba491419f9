package diskbtree

import (
	"path/filepath"
	"testing"

	"btreeperf/internal/xrand"
)

func sortedPairs(n int) ([]int64, []uint64) {
	keys := make([]int64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = int64(i * 5)
		vals[i] = uint64(i)
	}
	return keys, vals
}

func TestDiskBulkLoadBasic(t *testing.T) {
	keys, vals := sortedPairs(20000)
	path := filepath.Join(t.TempDir(), "bulk.db")
	tr, err := BulkLoad(path, Options{Cap: 64, CacheNodes: 64}, keys, vals, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(keys); i += 37 {
		v, ok, err := tr.Search(keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != vals[i] {
			t.Fatalf("Search(%d) = %d,%v", keys[i], v, ok)
		}
	}
}

func TestDiskBulkLoadPersists(t *testing.T) {
	keys, vals := sortedPairs(5000)
	path := filepath.Join(t.TempDir(), "bulk.db")
	tr, err := BulkLoad(path, Options{Cap: 32, CacheNodes: 32}, keys, vals, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(path, Options{Cap: 32, CacheNodes: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	if tr2.Len() != len(keys) {
		t.Fatalf("reopened Len = %d", tr2.Len())
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskBulkLoadThenMutate(t *testing.T) {
	keys, vals := sortedPairs(3000)
	path := filepath.Join(t.TempDir(), "bulk.db")
	tr, err := BulkLoad(path, Options{Cap: 16, CacheNodes: 32}, keys, vals, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Full leaves: inserts must split cleanly.
	src := xrand.New(3)
	for i := 0; i < 2000; i++ {
		if _, err := tr.Insert(src.Int63n(20000), 9); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		if _, err := tr.Delete(src.Int63n(20000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskBulkLoadRejectsNonEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bulk.db")
	tr, err := Open(path, Options{Cap: 16, CacheNodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	tr.Insert(1, 1)
	tr.Close()
	if _, err := BulkLoad(path, Options{Cap: 16, CacheNodes: 16}, []int64{2}, []uint64{2}, 0.9); err == nil {
		t.Fatal("bulk load over existing data accepted")
	}
}

func TestDiskBulkLoadValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bulk.db")
	if _, err := BulkLoad(path, Options{}, []int64{2, 1}, []uint64{1, 2}, 0.9); err == nil {
		t.Fatal("unsorted accepted")
	}
	if _, err := BulkLoad(path, Options{}, []int64{1}, []uint64{}, 0.9); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := BulkLoad(path, Options{}, []int64{1}, []uint64{1}, 2); err == nil {
		t.Fatal("bad fill accepted")
	}
}

func TestDiskBulkLoadDurable(t *testing.T) {
	keys, vals := sortedPairs(2000)
	path := filepath.Join(t.TempDir(), "bulk.db")
	tr, err := BulkLoad(path, Options{Cap: 16, CacheNodes: 16, Durable: true}, keys, vals, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate post-load, then crash.
	for i := int64(0); i < 100; i++ {
		tr.Insert(i*5+1, 7)
	}
	crashed := crash(t, tr, path)
	rec, err := Open(crashed, Options{Cap: 16, CacheNodes: 16, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != 2100 {
		t.Fatalf("Len = %d, want 2100", rec.Len())
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
