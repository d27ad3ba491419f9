package cbtree

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"btreeperf/internal/xrand"
)

// leafSet holds every leaf of a quiescent tree's leaf chain.
func leafSet(t *Tree) map[*node]bool {
	n := t.root.Load()
	for !n.isLeaf() {
		n = n.kids()[0].Load()
	}
	m := make(map[*node]bool)
	for ; n != nil; n = n.right.Load() {
		m[n] = true
	}
	return m
}

// TestOLCTornReadStress is the in-place write path's torn-read check,
// meant for -race. Writers churn the keys between a set of resident keys
// that nobody touches after set-up; latch-free readers must find every
// resident key with its value, every time, by Search and by SearchGE,
// and exactly once and in ascending order by Range — a read torn by a
// concurrent write or split and trusted anyway breaks one of the three.
// Afterwards the layout invariants must hold and every leaf that existed
// before the burst must still be on the leaf chain. Capacities 3 and 4
// make every third or fourth insert half-split a leaf around the new
// item, an odd and an even split; at capacity 64 a leaf keeps many gaps,
// so inserts move items toward gaps on either side, deletes leave gaps
// behind, and each split rewrites all 64 slots of the leaf it splits. At
// capacity 128 a leaf holds 64 to 128 items, more than blink.ScanRun
// slots between splits, so readers halve it by latch-free probes before
// they scan.
func TestOLCTornReadStress(t *testing.T) {
	for _, cap := range []int{3, 4, 64, 128} {
		t.Run(fmt.Sprint("cap", cap), func(t *testing.T) { tornReadStress(t, cap) })
	}
}

func tornReadStress(t *testing.T, cap int) {
	const (
		residents = 64 // few leaves, so readers and writers keep meeting
		stride    = 8  // resident keys are multiples of stride
		writers   = 3
		readers   = 3
	)
	burst := time.Second
	if testing.Short() {
		burst = 200 * time.Millisecond
	}
	resVal := func(k int64) uint64 { return uint64(k)*7 + 1 }
	churnVal := func(k int64) uint64 { return uint64(k) * 3 }

	tr := New(cap, OLC)
	for i := int64(0); i < residents; i++ {
		tr.Insert(i*stride, resVal(i*stride))
	}
	before := leafSet(tr)

	var done atomic.Bool
	var wwg, rwg sync.WaitGroup
	deadline := time.Now().Add(burst)
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			src := xrand.New(uint64(w) + 1)
			for i := 0; i%64 != 0 || time.Now().Before(deadline); i++ {
				k := src.Int63n(residents)*stride + 1 + src.Int63n(stride-1)
				if src.Bernoulli(0.6) {
					tr.Insert(k, churnVal(k))
				} else {
					tr.Delete(k)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			src := xrand.New(uint64(r) + 100)
			for !done.Load() {
				k := src.Int63n(residents) * stride
				if v, ok := tr.Search(k); !ok || v != resVal(k) {
					t.Errorf("Search(%d) = %d,%v", k, v, ok)
					return
				}
				if gk, gv, ok := tr.SearchGE(k); !ok || gk != k || gv != resVal(k) {
					t.Errorf("SearchGE(%d) = %d,%d,%v", k, gk, gv, ok)
					return
				}
				// The seek must also land on a resident key from the
				// churned gap below it, unless a churn key is in the way.
				if gk, gv, ok := tr.SearchGE(k + 1); !ok || gk > k+stride ||
					(gk%stride == 0 && gv != resVal(gk)) || (gk%stride != 0 && gv != churnVal(gk)) {
					if k+stride < residents*stride {
						t.Errorf("SearchGE(%d) = %d,%d,%v", k+1, gk, gv, ok)
						return
					}
				}
				hi := k + 5*stride
				last, seen := int64(-1), int64(0)
				tr.Range(k, hi, func(rk int64, rv uint64) bool {
					if rk <= last || rk < k || rk > hi {
						t.Errorf("Range(%d,%d) emitted %d after %d", k, hi, rk, last)
					}
					last = rk
					want := churnVal(rk)
					if rk%stride == 0 {
						seen++
						want = resVal(rk)
					}
					if rv != want {
						t.Errorf("Range(%d,%d): key %d has value %d, want %d", k, hi, rk, rv, want)
					}
					return true
				})
				if want := min(hi, (residents-1)*stride)/stride - k/stride + 1; seen != want {
					t.Errorf("Range(%d,%d) saw %d resident keys, want %d", k, hi, seen, want)
					return
				}
			}
		}(r)
	}
	wwg.Wait()
	done.Store(true)
	rwg.Wait()

	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	after := leafSet(tr)
	for n := range before {
		if !after[n] {
			t.Fatal("a leaf left the leaf chain during the burst")
		}
	}
	st := tr.Stats()
	if st.Splits == 0 {
		t.Fatal("the burst split nothing")
	}
	t.Logf("%d leaves -> %d, %d splits, %d read restarts, %d fallbacks",
		len(before), len(after), st.Splits, st.ReadRestarts, st.ReadFallbacks)
}

// leafRuns lists the items of a quiescent tree leaf by leaf, gaps
// skipped and empty leaves included: its contents and its leaf
// boundaries.
func leafRuns(t *Tree) (runs [][]int64, vals []uint64) {
	n := t.root.Load()
	for !n.isLeaf() {
		n = n.kids()[0].Load()
	}
	for ; n != nil; n = n.right.Load() {
		k, v := leafItems(n)
		runs, vals = append(runs, k), append(vals, v...)
	}
	return runs, vals
}

// TestOLCMatchesLinkType replays one operation stream into a tree of each
// algorithm and a map. The four are one node kernel under four locking
// protocols, so every result, the stored contents, and the shape — same
// splits at the same points, same height, same leaf boundaries — must
// agree.
func TestOLCMatchesLinkType(t *testing.T) {
	for _, cap := range []int{3, 4, 16, 64, 100} {
		var trees []*Tree
		for _, alg := range algorithms {
			trees = append(trees, New(cap, alg))
		}
		// each runs op on every tree and fails unless all agree with the
		// first, whose result it returns.
		each := func(what string, i int, k int64, op func(*Tree) [3]uint64) [3]uint64 {
			t.Helper()
			want := op(trees[0])
			for _, tr := range trees[1:] {
				if got := op(tr); got != want {
					t.Fatalf("cap %d op %d: %s(%d) = %v (%v) but %v (%v)", cap, i, what, k, got, tr.Algorithm(), want, trees[0].Algorithm())
				}
			}
			return want
		}
		flag := func(b bool) uint64 {
			if b {
				return 1
			}
			return 0
		}
		oracle := map[int64]uint64{}
		src := rand.New(rand.NewPCG(uint64(cap), 0))
		for i := 0; i < 30000; i++ {
			k := src.Int64N(5000)
			want, had := oracle[k]
			switch src.IntN(8) {
			case 0, 1, 2:
				v := src.Uint64()
				oracle[k] = v
				if got := each("Insert", i, k, func(tr *Tree) [3]uint64 { return [3]uint64{flag(tr.Insert(k, v))} }); got[0] == flag(had) {
					t.Fatalf("cap %d op %d: Insert(%d) = %v, key present %v", cap, i, k, got[0] == 1, had)
				}
			case 3, 4:
				delete(oracle, k)
				if got := each("Delete", i, k, func(tr *Tree) [3]uint64 { return [3]uint64{flag(tr.Delete(k))} }); got[0] != flag(had) {
					t.Fatalf("cap %d op %d: Delete(%d) = %v, key present %v", cap, i, k, got[0] == 1, had)
				}
			case 5, 6:
				got := each("Search", i, k, func(tr *Tree) [3]uint64 {
					v, ok := tr.Search(k)
					return [3]uint64{flag(ok), v}
				})
				if got != [3]uint64{flag(had), want} {
					t.Fatalf("cap %d op %d: Search(%d) = %v, want %d,%v", cap, i, k, got, want, had)
				}
			default:
				got := each("SearchGE", i, k, func(tr *Tree) [3]uint64 {
					gk, v, ok := tr.SearchGE(k)
					return [3]uint64{flag(ok), v, uint64(gk)}
				})
				if gk := int64(got[2]); got[0] == 1 && (gk < k || oracle[gk] != got[1]) {
					t.Fatalf("cap %d op %d: SearchGE(%d) = %d,%d", cap, i, k, gk, got[1])
				}
			}
		}
		wantRuns, wantVals := leafRuns(trees[0])
		wantSplits, wantHeight := trees[0].Stats().Splits, trees[0].Height()
		for _, tr := range trees {
			type item struct {
				key int64
				val uint64
			}
			var got []item
			tr.Range(-1<<63, 1<<63-1, func(k int64, v uint64) bool {
				got = append(got, item{k, v})
				return true
			})
			for i, it := range got {
				if v, ok := oracle[it.key]; !ok || v != it.val || (i > 0 && got[i-1].key >= it.key) {
					t.Fatalf("cap %d %v: scan position %d has %d=%d, oracle %d,%v", cap, tr.Algorithm(), i, it.key, it.val, v, ok)
				}
			}
			if len(got) != len(oracle) || tr.Len() != len(oracle) {
				t.Fatalf("cap %d %v: %d keys by scan, Len %d, %d in the oracle", cap, tr.Algorithm(), len(got), tr.Len(), len(oracle))
			}
			if got := tr.Stats().Splits; got != wantSplits || tr.Height() != wantHeight {
				t.Fatalf("cap %d: shapes differ: %d splits height %d (%v), %d splits height %d (%v)",
					cap, got, tr.Height(), tr.Algorithm(), wantSplits, wantHeight, trees[0].Algorithm())
			}
			runs, vals := leafRuns(tr)
			if !slices.EqualFunc(runs, wantRuns, slices.Equal[[]int64]) || !slices.Equal(vals, wantVals) {
				t.Fatalf("cap %d: %v and %v put their leaf boundaries in different places", cap, tr.Algorithm(), trees[0].Algorithm())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("cap %d %v: %v", cap, tr.Algorithm(), err)
			}
			tr.Compact()
			if err := tr.CheckInvariants(); err != nil || tr.Len() != len(oracle) {
				t.Fatalf("cap %d %v: after Compact: Len %d want %d, %v", cap, tr.Algorithm(), tr.Len(), len(oracle), err)
			}
		}
	}
}
