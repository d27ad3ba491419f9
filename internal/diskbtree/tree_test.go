package diskbtree

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"testing"

	"btreeperf/internal/blink"
	"btreeperf/internal/xrand"
)

func openTemp(t *testing.T, opts Options) (*Tree, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tree.db")
	tr, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr, path
}

func TestOpenValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "a.db"), Options{Cap: 2}); err == nil {
		t.Error("cap 2 accepted")
	}
	if _, err := Open(filepath.Join(dir, "b.db"), Options{Cap: MaxCap + 1}); err == nil {
		t.Error("oversized cap accepted")
	}
}

func TestBasicOps(t *testing.T) {
	tr, _ := openTemp(t, Options{Cap: 8, CacheNodes: 64})
	defer tr.Close()
	const n = 5000
	for i := int64(0); i < n; i++ {
		fresh, err := tr.Insert(i, uint64(i*7))
		if err != nil {
			t.Fatal(err)
		}
		if !fresh {
			t.Fatalf("Insert(%d) reported duplicate", i)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := int64(0); i < n; i++ {
		v, ok, err := tr.Search(i)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != uint64(i*7) {
			t.Fatalf("Search(%d) = %d,%v", i, v, ok)
		}
	}
	if _, ok, _ := tr.Search(n + 1); ok {
		t.Fatal("phantom key")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReplaceAndDelete(t *testing.T) {
	tr, _ := openTemp(t, Options{Cap: 8, CacheNodes: 32})
	defer tr.Close()
	tr.Insert(1, 10)
	fresh, _ := tr.Insert(1, 20)
	if fresh {
		t.Fatal("replace reported fresh")
	}
	if v, _, _ := tr.Search(1); v != 20 {
		t.Fatalf("v = %d", v)
	}
	ok, _ := tr.Delete(1)
	if !ok {
		t.Fatal("Delete missed")
	}
	ok, _ = tr.Delete(1)
	if ok {
		t.Fatal("double delete")
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	tr, path := openTemp(t, Options{Cap: 16, CacheNodes: 32})
	src := rand.New(rand.NewPCG(5, 0))
	want := map[int64]uint64{}
	for i := 0; i < 10000; i++ {
		k := src.Int64N(1 << 30)
		v := src.Uint64()
		tr.Insert(k, v)
		want[k] = v
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	tr2, err := Open(path, Options{Cap: 16, CacheNodes: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	if tr2.Len() != len(want) {
		t.Fatalf("reopened Len = %d, want %d", tr2.Len(), len(want))
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		got, ok, err := tr2.Search(k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || got != v {
			t.Fatalf("Search(%d) = %d,%v want %d", k, got, ok, v)
		}
	}
}

func TestCapMismatchRejected(t *testing.T) {
	tr, path := openTemp(t, Options{Cap: 16, CacheNodes: 32})
	tr.Insert(1, 1)
	tr.Close()
	if _, err := Open(path, Options{Cap: 32, CacheNodes: 32}); err == nil {
		t.Fatal("capacity mismatch accepted")
	}
}

func TestTinyCacheStillCorrect(t *testing.T) {
	// A 4-node pool forces constant eviction and re-decode; contents and
	// structure must survive the round-trips.
	tr, _ := openTemp(t, Options{Cap: 8, CacheNodes: 4})
	defer tr.Close()
	src := rand.New(rand.NewPCG(7, 0))
	model := map[int64]uint64{}
	for i := 0; i < 8000; i++ {
		k := src.Int64N(2000)
		switch src.IntN(3) {
		case 0:
			v := src.Uint64()
			tr.Insert(k, v)
			model[k] = v
		case 1:
			ok, _ := tr.Delete(k)
			if _, existed := model[k]; ok != existed {
				t.Fatalf("Delete(%d) mismatch", k)
			}
			delete(model, k)
		case 2:
			got, ok, _ := tr.Search(k)
			want, existed := model[k]
			if ok != existed || (ok && got != want) {
				t.Fatalf("Search(%d) mismatch", k)
			}
		}
	}
	stats := tr.CacheStats()
	if stats.Evictions == 0 {
		t.Fatal("tiny cache never evicted")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRange(t *testing.T) {
	tr, _ := openTemp(t, Options{Cap: 8, CacheNodes: 64})
	defer tr.Close()
	for i := int64(0); i < 1000; i += 10 {
		tr.Insert(i, uint64(i))
	}
	var got []int64
	err := tr.Range(95, 155, func(k int64, v uint64) bool {
		got = append(got, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{100, 110, 120, 130, 140, 150}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Range = %v, want %v", got, want)
	}
	count := 0
	tr.Range(0, 999, func(int64, uint64) bool { count++; return count < 7 })
	if count != 7 {
		t.Fatalf("early stop at %d", count)
	}
}

func TestConcurrentOwnedKeys(t *testing.T) {
	tr, _ := openTemp(t, Options{Cap: 16, CacheNodes: 256})
	defer tr.Close()
	const workers = 8
	const opsPer = 3000
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rand.New(rand.NewPCG(uint64(w)*977, 0))
			mine := map[int64]uint64{}
			for i := 0; i < opsPer; i++ {
				k := src.Int64N(3000)*workers + int64(w)
				switch src.IntN(3) {
				case 0:
					v := src.Uint64()
					if _, err := tr.Insert(k, v); err != nil {
						errs <- err
						return
					}
					mine[k] = v
				case 1:
					ok, err := tr.Delete(k)
					if err != nil {
						errs <- err
						return
					}
					if _, existed := mine[k]; ok != existed {
						errs <- fmt.Errorf("worker %d: Delete(%d) mismatch", w, k)
						return
					}
					delete(mine, k)
				case 2:
					got, ok, err := tr.Search(k)
					if err != nil {
						errs <- err
						return
					}
					want, existed := mine[k]
					if ok != existed || (ok && got != want) {
						errs <- fmt.Errorf("worker %d: Search(%d) = %d,%v want %d,%v",
							w, k, got, ok, want, existed)
						return
					}
				}
			}
			for k, want := range mine {
				got, ok, err := tr.Search(k)
				if err != nil || !ok || got != want {
					errs <- fmt.Errorf("worker %d: final Search(%d) = %d,%v,%v want %d",
						w, k, got, ok, err, want)
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentWithEvictionPressure(t *testing.T) {
	// Concurrency plus a small pool: pins, latches and eviction interact.
	tr, _ := openTemp(t, Options{Cap: 8, CacheNodes: 24})
	defer tr.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := xrand.New(uint64(w) + 31)
			for i := 0; i < 4000; i++ {
				k := src.Int63n(1 << 20)
				var err error
				if src.Bernoulli(0.6) {
					_, err = tr.Insert(k, uint64(k))
				} else {
					_, err = tr.Delete(k)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := tr.CacheStats()
	if st.Evictions == 0 {
		t.Fatal("expected eviction pressure")
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("hits %d, misses %d: want both under eviction pressure", st.Hits, st.Misses)
	}
}

func TestSyncThenReopenWithoutClose(t *testing.T) {
	tr, path := openTemp(t, Options{Cap: 8, CacheNodes: 32})
	for i := int64(0); i < 2000; i++ {
		tr.Insert(i, uint64(i))
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulate process abandonment after a clean Sync: reopen the file
	// directly (the old handle is dropped without Close).
	tr2, err := Open(path, Options{Cap: 8, CacheNodes: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	if tr2.Len() != 2000 {
		t.Fatalf("Len = %d", tr2.Len())
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHitRatioGrowsWithPool(t *testing.T) {
	run := func(cacheNodes int) float64 {
		tr, _ := openTemp(t, Options{Cap: 16, CacheNodes: cacheNodes})
		defer tr.Close()
		src := xrand.New(11)
		for i := 0; i < 20000; i++ {
			tr.Insert(src.Int63n(1<<24), 1)
		}
		// Measure a read-only phase.
		tr2 := tr
		before := tr2.CacheStats()
		reads := xrand.New(13)
		for i := 0; i < 20000; i++ {
			tr2.Search(reads.Int63n(1 << 24))
		}
		after := tr2.CacheStats()
		hits := after.Hits - before.Hits
		misses := after.Misses - before.Misses
		return float64(hits) / float64(hits+misses)
	}
	small := run(16)
	large := run(4096)
	if large <= small {
		t.Fatalf("hit ratio did not grow with pool: %v vs %v", small, large)
	}
	if large < 0.95 {
		t.Fatalf("all-resident pool hit ratio %v", large)
	}
}

func TestDescendingAndRandomInsertOrders(t *testing.T) {
	for _, order := range []string{"desc", "random"} {
		tr, _ := openTemp(t, Options{Cap: 5, CacheNodes: 64})
		src := xrand.New(3)
		const n = 3000
		for i := 0; i < n; i++ {
			k := int64(n - i)
			if order == "random" {
				k = src.Int63n(1 << 40)
			}
			tr.Insert(k, uint64(k))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", order, err)
		}
		tr.Close()
	}
}

func TestSearchGEAndMin(t *testing.T) {
	tr, _ := openTemp(t, Options{Cap: 8, CacheNodes: 32})
	defer tr.Close()
	for i := int64(0); i < 100; i++ {
		tr.Insert(i*10, uint64(i))
	}
	cases := []struct {
		in, want int64
		ok       bool
	}{
		{-5, 0, true},
		{0, 0, true},
		{1, 10, true},
		{445, 450, true},
		{990, 990, true},
		{991, 0, false},
	}
	for _, c := range cases {
		k, _, ok, err := tr.SearchGE(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || (ok && k != c.want) {
			t.Errorf("SearchGE(%d) = %d,%v want %d,%v", c.in, k, ok, c.want, c.ok)
		}
	}
	k, _, ok, err := tr.Min()
	if err != nil || !ok || k != 0 {
		t.Fatalf("Min = %d,%v,%v", k, ok, err)
	}
	// Seeks skip lazily emptied leaves.
	for i := int64(0); i < 30; i++ {
		tr.Delete(i * 10)
	}
	k, _, ok, err = tr.Min()
	if err != nil || !ok || k != 300 {
		t.Fatalf("Min after deletes = %d,%v,%v", k, ok, err)
	}
}

func TestSearchGEEmpty(t *testing.T) {
	tr, _ := openTemp(t, Options{Cap: 8, CacheNodes: 8})
	defer tr.Close()
	if _, _, ok, err := tr.SearchGE(0); ok || err != nil {
		t.Fatalf("empty SearchGE = %v,%v", ok, err)
	}
}

// A writer that descended while the root was a lone leaf holds an empty
// ancestor stack. If the root grows before that writer's leaf splits, the
// split has no remembered parent and must find it from the new root
// (descend to the parent's level). The window is a few instructions
// wide, so the test stands in for the writer: on a tree that already has
// inner levels it latches a full leaf and inserts with the empty stack
// that writer would hold.
func TestSplitRepairAfterRootGrowth(t *testing.T) {
	tr, _ := openTemp(t, Options{Cap: 4, CacheNodes: 64})
	defer tr.Close()
	want := map[int64]bool{}
	insert := func(k int64) {
		t.Helper()
		if _, err := tr.Insert(k, uint64(k)); err != nil {
			t.Fatal(err)
		}
		want[k] = true
	}
	for k := int64(0); k < 40; k += 2 {
		insert(k)
	}
	if tr.Height() < 2 {
		t.Fatalf("height %d: the root never grew", tr.Height())
	}
	splits, _ := tr.Stats()
	for k := int64(1); ; k += 2 {
		n, _, err := tr.descend(1, k, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n.items() < tr.cap {
			tr.wUnlatch(n, false)
			insert(k) // fill the leaf the ordinary way
			continue
		}
		i, _ := blink.Find(n.keys(), k)
		tr.size.Add(1)
		if err := tr.insertItem(n, i, k, i, uint64(k), nil); err != nil {
			t.Fatal(err)
		}
		want[k] = true
		break
	}
	if after, _ := tr.Stats(); after == splits {
		t.Fatal("the stackless insert did not split")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(want))
	}
	for k := range want {
		if v, ok, err := tr.Search(k); err != nil || !ok || v != uint64(k) {
			t.Fatalf("Search(%d) = %d,%v,%v", k, v, ok, err)
		}
	}
}
