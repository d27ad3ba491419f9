package cbtree

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"btreeperf/internal/xrand"
)

// leafStorage maps every leaf of a quiescent OLC tree to the first slots
// of its keys and vals arrays, the identity of its storage.
func leafStorage(t *Tree) map[*node][2]any {
	n := t.root.Load()
	for !n.isLeaf() {
		n = n.children[0]
	}
	m := make(map[*node][2]any)
	for ; n != nil; n = n.right.Load() {
		m[n] = [2]any{&n.keys[0], &n.vals[0]}
	}
	return m
}

// TestOLCTornReadStress is the in-place write path's torn-read check,
// meant for -race. Writers churn the keys between a set of resident keys
// that nobody touches after set-up; latch-free readers must find every
// resident key with its value, every time, by Search and by SearchGE,
// and exactly once and in ascending order by Range — a read torn by a
// concurrent shift or split and trusted anyway breaks one of the three.
// Afterwards the layout invariants must hold and every leaf that existed
// before the burst must still own the same storage. Capacity 4 makes
// every fourth insert half-split a leaf; capacity 64 makes shifts long,
// so a reader meets a leaf mid-shift about a hundred times as often.
func TestOLCTornReadStress(t *testing.T) {
	for _, cap := range []int{4, 64} {
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
	before := leafStorage(tr)

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
	after := leafStorage(tr)
	for n, was := range before {
		if now, ok := after[n]; !ok || now != was {
			t.Fatalf("a leaf's storage moved during the burst (still chained: %v)", ok)
		}
	}
	st := tr.Stats()
	if st.Splits == 0 {
		t.Fatal("the burst split nothing")
	}
	t.Logf("%d leaves -> %d, %d splits, %d read restarts, %d fallbacks",
		len(before), len(after), st.Splits, st.ReadRestarts, st.ReadFallbacks)
}

// TestOLCMatchesLinkType replays one operation stream into an OLC tree, a
// Link-type tree and a map. OLC writes are the Link-type protocol on a
// different storage discipline, so every result, the stored contents,
// and the shape (same splits at the same points) must agree.
func TestOLCMatchesLinkType(t *testing.T) {
	for _, cap := range []int{3, 4, 16, 64, 100} {
		olc, link := New(cap, OLC), New(cap, LinkType)
		oracle := map[int64]uint64{}
		src := xrand.New(uint64(cap))
		for i := 0; i < 30000; i++ {
			k := src.Int63n(5000)
			switch src.IntN(8) {
			case 0, 1, 2:
				v := src.Uint64()
				_, had := oracle[k]
				oracle[k] = v
				if a, b := olc.Insert(k, v), link.Insert(k, v); a != b || a == had {
					t.Fatalf("cap %d op %d: Insert(%d) = %v (olc) %v (link), key present %v", cap, i, k, a, b, had)
				}
			case 3, 4:
				_, had := oracle[k]
				delete(oracle, k)
				if a, b := olc.Delete(k), link.Delete(k); a != b || a != had {
					t.Fatalf("cap %d op %d: Delete(%d) = %v (olc) %v (link), key present %v", cap, i, k, a, b, had)
				}
			case 5, 6:
				want, had := oracle[k]
				v1, ok1 := olc.Search(k)
				v2, ok2 := link.Search(k)
				if v1 != want || ok1 != had || v2 != want || ok2 != had {
					t.Fatalf("cap %d op %d: Search(%d) = %d,%v (olc) %d,%v (link) want %d,%v", cap, i, k, v1, ok1, v2, ok2, want, had)
				}
			default:
				k1, v1, ok1 := olc.SearchGE(k)
				k2, v2, ok2 := link.SearchGE(k)
				if k1 != k2 || v1 != v2 || ok1 != ok2 || (ok1 && (k1 < k || oracle[k1] != v1)) {
					t.Fatalf("cap %d op %d: SearchGE(%d) = %d,%d,%v (olc) %d,%d,%v (link)", cap, i, k, k1, v1, ok1, k2, v2, ok2)
				}
			}
		}
		type item struct {
			key int64
			val uint64
		}
		var got []item
		olc.Range(-1<<63, 1<<63-1, func(k int64, v uint64) bool {
			got = append(got, item{k, v})
			return true
		})
		i := 0
		link.Range(-1<<63, 1<<63-1, func(k int64, v uint64) bool {
			if i >= len(got) || got[i] != (item{k, v}) || oracle[k] != v {
				t.Fatalf("cap %d: scans diverge at position %d (link has %d=%d)", cap, i, k, v)
			}
			i++
			return true
		})
		if i != len(got) || i != len(oracle) || olc.Len() != i || link.Len() != i {
			t.Fatalf("cap %d: %d keys by olc scan, %d by link scan, %d in the oracle, Len %d/%d",
				cap, len(got), i, len(oracle), olc.Len(), link.Len())
		}
		if a, b := olc.Stats().Splits, link.Stats().Splits; a != b || olc.Height() != link.Height() {
			t.Fatalf("cap %d: shapes differ: %d splits height %d (olc), %d splits height %d (link)",
				cap, a, olc.Height(), b, link.Height())
		}
		for _, tr := range []*Tree{olc, link} {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("cap %d %v: %v", cap, tr.Algorithm(), err)
			}
		}
		olc.Compact()
		if err := olc.CheckInvariants(); err != nil || olc.Len() != len(oracle) {
			t.Fatalf("cap %d: after Compact: Len %d want %d, %v", cap, olc.Len(), len(oracle), err)
		}
	}
}
