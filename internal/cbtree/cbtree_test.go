package cbtree

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"btreeperf/internal/lock"
	"btreeperf/internal/xrand"
)

var algorithms = []Algorithm{LockCoupling, Optimistic, LinkType, OLC}

func TestAlgorithmString(t *testing.T) {
	want := map[Algorithm]string{
		LockCoupling: "lock-coupling",
		Optimistic:   "optimistic",
		LinkType:     "link-type",
		OLC:          "olc",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q", a, a.String())
		}
	}
	if Algorithm(9).String() != "Algorithm(9)" {
		t.Error("unknown algorithm string")
	}
}

func TestNewValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(2, LinkType) },
		func() { New(13, Algorithm(9)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid New did not panic")
				}
			}()
			f()
		}()
	}
}

func TestSequentialBasics(t *testing.T) {
	for _, alg := range algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			tr := New(4, alg)
			const n = 2000
			for i := int64(0); i < n; i++ {
				if !tr.Insert(i, uint64(i*3)) {
					t.Fatalf("Insert(%d) duplicate", i)
				}
			}
			if tr.Len() != n {
				t.Fatalf("Len = %d", tr.Len())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < n; i++ {
				v, ok := tr.Search(i)
				if !ok || v != uint64(i*3) {
					t.Fatalf("Search(%d) = %d,%v", i, v, ok)
				}
			}
			if _, ok := tr.Search(n); ok {
				t.Fatal("phantom key")
			}
			// Replace.
			if tr.Insert(5, 99) {
				t.Fatal("replace reported fresh")
			}
			if v, _ := tr.Search(5); v != 99 {
				t.Fatal("replace did not stick")
			}
			// Delete half.
			for i := int64(0); i < n; i += 2 {
				if !tr.Delete(i) {
					t.Fatalf("Delete(%d)", i)
				}
			}
			if tr.Delete(0) {
				t.Fatal("double delete")
			}
			if tr.Len() != n/2 {
				t.Fatalf("Len = %d", tr.Len())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSequentialRandomAgainstModel(t *testing.T) {
	for _, alg := range algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			tr := New(7, alg)
			model := map[int64]uint64{}
			src := rand.New(rand.NewPCG(uint64(alg)+100, 0))
			for i := 0; i < 20000; i++ {
				k := src.Int64N(2000)
				switch src.IntN(3) {
				case 0:
					v := src.Uint64()
					_, existed := model[k]
					if tr.Insert(k, v) == existed {
						t.Fatalf("Insert(%d) freshness mismatch", k)
					}
					model[k] = v
				case 1:
					_, existed := model[k]
					if tr.Delete(k) != existed {
						t.Fatalf("Delete(%d) mismatch", k)
					}
					delete(model, k)
				case 2:
					want, existed := model[k]
					got, ok := tr.Search(k)
					if ok != existed || (ok && got != want) {
						t.Fatalf("Search(%d) mismatch", k)
					}
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if tr.Len() != len(model) {
				t.Fatalf("Len %d vs model %d", tr.Len(), len(model))
			}
		})
	}
}

func TestRangeScan(t *testing.T) {
	for _, alg := range algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			tr := New(5, alg)
			for i := int64(0); i < 500; i += 5 {
				tr.Insert(i, uint64(i))
			}
			var got []int64
			tr.Range(100, 130, func(k int64, v uint64) bool {
				got = append(got, k)
				return true
			})
			want := []int64{100, 105, 110, 115, 120, 125, 130}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("Range = %v, want %v", got, want)
			}
			// Early stop.
			count := 0
			tr.Range(0, 499, func(int64, uint64) bool { count++; return count < 3 })
			if count != 3 {
				t.Fatalf("early stop visited %d", count)
			}
		})
	}
}

// TestConcurrentOwnedKeys is the strongest concurrent correctness check:
// each goroutine owns a disjoint key slice and verifies its own keys
// exactly while all goroutines contend on the same nodes.
func TestConcurrentOwnedKeys(t *testing.T) {
	for _, alg := range algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			tr := New(8, alg)
			const workers = 8
			const opsPer = 6000
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					src := rand.New(rand.NewPCG(uint64(w)*7919+uint64(alg), 0))
					mine := map[int64]uint64{}
					for i := 0; i < opsPer; i++ {
						// Keys owned by worker w: k ≡ w (mod workers).
						k := src.Int64N(4000)*workers + int64(w)
						switch src.IntN(3) {
						case 0:
							v := src.Uint64()
							_, existed := mine[k]
							if tr.Insert(k, v) == existed {
								errs <- fmt.Errorf("worker %d: Insert(%d) freshness", w, k)
								return
							}
							mine[k] = v
						case 1:
							_, existed := mine[k]
							if tr.Delete(k) != existed {
								errs <- fmt.Errorf("worker %d: Delete(%d)", w, k)
								return
							}
							delete(mine, k)
						case 2:
							want, existed := mine[k]
							got, ok := tr.Search(k)
							if ok != existed || (ok && got != want) {
								errs <- fmt.Errorf("worker %d: Search(%d) = %d,%v want %d,%v",
									w, k, got, ok, want, existed)
								return
							}
						}
					}
					// Final sweep: every owned key must be exactly right.
					for k, want := range mine {
						got, ok := tr.Search(k)
						if !ok || got != want {
							errs <- fmt.Errorf("worker %d: final Search(%d) = %d,%v want %d",
								w, k, got, ok, want)
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
		})
	}
}

func TestConcurrentDisjointInsertsAllPresent(t *testing.T) {
	for _, alg := range algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			tr := New(5, alg)
			const workers = 10
			const per = 3000
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						k := int64(i*workers + w)
						tr.Insert(k, uint64(k))
					}
				}(w)
			}
			wg.Wait()
			if tr.Len() != workers*per {
				t.Fatalf("Len = %d, want %d", tr.Len(), workers*per)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for k := int64(0); k < workers*per; k++ {
				if v, ok := tr.Search(k); !ok || v != uint64(k) {
					t.Fatalf("missing key %d", k)
				}
			}
		})
	}
}

func TestConcurrentRangeDuringInserts(t *testing.T) {
	for _, alg := range algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			tr := New(6, alg)
			// Pre-populate the even keys; they never change.
			for i := int64(0); i < 4000; i += 2 {
				tr.Insert(i, uint64(i))
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // churn odd keys
				defer wg.Done()
				src := xrand.New(3)
				for {
					select {
					case <-stop:
						return
					default:
					}
					k := src.Int63n(2000)*2 + 1
					if src.Bernoulli(0.5) {
						tr.Insert(k, uint64(k))
					} else {
						tr.Delete(k)
					}
				}
			}()
			// Scans must always see every even key exactly once, in order.
			for scan := 0; scan < 50; scan++ {
				last := int64(-1)
				evens := 0
				tr.Range(0, 3999, func(k int64, v uint64) bool {
					if k <= last {
						t.Errorf("scan out of order: %d after %d", k, last)
					}
					last = k
					if k%2 == 0 {
						evens++
						if v != uint64(k) {
							t.Errorf("even key %d value %d", k, v)
						}
					}
					return true
				})
				if evens != 2000 {
					t.Errorf("scan %d saw %d even keys, want 2000", scan, evens)
				}
			}
			close(stop)
			wg.Wait()
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLinkCrossingsObserved(t *testing.T) {
	// Under heavy concurrent inserts the LinkType tree should record some
	// right-link crossings (splits racing with descents), while remaining
	// correct; the other algorithms never cross.
	tr := New(4, LinkType)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := xrand.New(uint64(w) + 55)
			for i := 0; i < 20000; i++ {
				tr.Insert(src.Int63n(1<<40), 1)
			}
		}(w)
	}
	wg.Wait()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Crossings are expected but not guaranteed on every run; just log.
	t.Logf("crossings: %d splits: %d", tr.Stats().Crossings, tr.Stats().Splits)
}

func TestOptimisticRestartsCounted(t *testing.T) {
	tr := New(4, Optimistic)
	src := xrand.New(9)
	for i := 0; i < 20000; i++ {
		tr.Insert(src.Int63n(1<<40), 1)
	}
	if tr.Stats().Restarts == 0 {
		t.Fatal("small nodes with many inserts should trigger optimistic restarts")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactReclaimsEmptyLeaves(t *testing.T) {
	tr := New(4, LinkType)
	for i := int64(0); i < 1000; i++ {
		tr.Insert(i, uint64(i))
	}
	for i := int64(0); i < 1000; i++ {
		if i%10 != 0 {
			tr.Delete(i)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	before := tr.Height()
	tr.Compact()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 100 {
		t.Fatalf("Len after compact = %d", tr.Len())
	}
	if tr.Height() > before {
		t.Fatalf("compact grew the tree: %d -> %d", before, tr.Height())
	}
	for i := int64(0); i < 1000; i += 10 {
		if _, ok := tr.Search(i); !ok {
			t.Fatalf("key %d lost in compact", i)
		}
	}
}

func TestHeightGrows(t *testing.T) {
	tr := New(3, LinkType)
	if tr.Height() != 1 {
		t.Fatal("empty height")
	}
	for i := int64(0); i < 100; i++ {
		tr.Insert(i, 0)
	}
	if tr.Height() < 3 {
		t.Fatalf("height = %d", tr.Height())
	}
}

// hookProbe is a lock.Probe that runs fn, once, inside the next exclusive
// acquisition of the lock it is attached to — after the grant, so the
// caller of Lock holds the lock while fn runs.
type hookProbe struct{ fn func() }

func (h *hookProbe) Acquired(write bool, _ int64) {
	if fn := h.fn; write && fn != nil {
		h.fn = nil
		fn()
	}
}
func (*hookProbe) Held(bool, int64)     {}
func (*hookProbe) WriterPresence(int64) {}
func (*hookProbe) Gate() *lock.Gate     { return nil }

// TestSplitRepairAfterRootGrowth drives a Link-type (and OLC) insert down
// the one repair path a sequential test never takes and a concurrent one
// takes when it pleases: the ancestor stack runs out during the ascent
// because the root grew after the descent, so the parent level has to be
// found from the new root (linkDescend to that level). One goroutine does
// it all: a probe on the target leaf's lock fires once the writer holds
// that leaf, and inside it other inserts split the old root, grow two
// levels above it, and refill the writer's stale parent to the brim.
func TestSplitRepairAfterRootGrowth(t *testing.T) {
	const cap = 3
	for _, alg := range []Algorithm{LinkType, OLC} {
		t.Run(alg.String(), func(t *testing.T) {
			tr := New(cap, alg)
			want := map[int64]bool{}
			insert := func(k int64) {
				tr.Insert(k, uint64(k))
				want[k] = true
			}
			// Height 2, and the rightmost leaf full: the next key past it
			// splits that leaf.
			for k := int64(1000); k <= 5000; k += 1000 {
				insert(k)
			}
			rightmost := func(level int32) *node {
				n := tr.root.Load()
				for n.level > level {
					n = lastChild(n)
				}
				return n
			}
			leaf := rightmost(1)
			if tr.Height() != 2 || leaf.items() != cap {
				t.Fatalf("setup: height %d, rightmost leaf holds %d of %d", tr.Height(), leaf.items(), cap)
			}
			ran := false
			leaf.mu.SetProbe(&hookProbe{fn: func() {
				// The writer below holds the leaf and remembers the old
				// root as its parent. Keys under 2000 never reach that
				// leaf; they split its left neighbours until the old root
				// has split, the root is two levels above it (so that
				// finding the parent level is a descent, not a look at
				// the root) and the half that kept the leaf is full again.
				for k := int64(1001); tr.Height() < 4 || rightmost(2).items() < cap; k++ {
					if k == 2000 {
						t.Fatal("the old root never split and refilled")
					}
					insert(k)
				}
				if p := rightmost(2); lastChild(p) != leaf {
					t.Fatal("the writer's leaf is no longer the rightmost")
				}
				ran = true
			}})
			insert(6000) // splits the leaf, then its full parent, with nothing left on the stack
			if !ran {
				t.Fatal("the hook did not run")
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if tr.Len() != len(want) {
				t.Fatalf("Len = %d, want %d", tr.Len(), len(want))
			}
			for k := range want {
				if v, ok := tr.Search(k); !ok || v != uint64(k) {
					t.Fatalf("Search(%d) = %d,%v", k, v, ok)
				}
			}
		})
	}
}
