package cbtree

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"btreeperf/internal/xrand"
)

// A full leaf whose right neighbour under the same parent is roomy lends
// it half its surplus instead of splitting (lend). These tests hold the
// lend to its layout, to one tree whatever the protocol, to the fill it
// buys, and to its concurrency contract.

// twoLeaves builds a tree whose root holds two leaves: n, full with the
// keys 10, 20, …, 10·cap, and its right neighbour r with rc items from
// 10·cap+100 up, under the separator 10·cap+50.
func twoLeaves(cap, rc int, alg Algorithm) (tr *Tree, p, n, r *node) {
	tr = New(cap, alg)
	n, r, p = tr.root.Load(), tr.newNode(1), tr.newNode(2)
	var keys []int64
	var vals []uint64
	for i := range cap {
		keys, vals = append(keys, int64(i+1)*10), append(vals, uint64(i+1)*10+1)
	}
	n.lay(keys, vals, -1, 0, 0, alg == OLC)
	keys, vals = keys[:0], vals[:0]
	for i := range rc {
		k := int64(cap*10 + 100 + 10*i)
		keys, vals = append(keys, k), append(vals, uint64(k)+1)
	}
	r.lay(keys, vals, -1, 0, 0, alg == OLC)
	sep := int64(cap*10 + 50)
	linkRight(n, r, sep)
	p.putEntry(0, math.MinInt64, n)
	p.putEntry(1, sep, r)
	tr.root.Store(p)
	tr.size.Store(int64(cap + rc))
	return tr, p, n, r
}

// TestLendAroundNewItem is the table test of lend: a full leaf takes a
// new item at every slot 0..cap while its neighbour holds every count
// from empty to the most a lend accepts, with plain and with atomic
// stores. The cap+1+rc items must end up as a split of them would lay
// them out — the left keeps ⌈total/2⌉ — both leaves sorted (item by
// item, gaps skipped), the separator the neighbour's new first key, in
// n's high key and the parent's router alike, and nothing allocated. One
// item more in the neighbour and the lend must decline, touching nothing.
func TestLendAroundNewItem(t *testing.T) {
	for _, cap := range []int{3, 4, 5, 16, 64} {
		slack := max(cap/8, 2)
		for _, alg := range []Algorithm{LinkType, OLC} {
			for rc := 0; rc <= cap-slack+1; rc++ {
				for slot := 0; slot <= cap; slot++ {
					fail := func(format string, args ...any) {
						t.Helper()
						t.Errorf("cap %d %v, neighbour of %d, new item at slot %d: "+format, append([]any{cap, alg, rc, slot}, args...)...)
					}
					tr, p, n, r := twoLeaves(cap, rc, alg)
					lk, lv := leafItems(n)
					rk, rv := leafItems(r)
					key := int64(slot)*10 + 5
					if fresh, full := tr.leafPut(n, key, 7); !fresh || !full {
						fail("leafPut into a full leaf: fresh %v, full %v", fresh, full)
						continue
					}
					if lent := tr.lend(p, n, r, key, 7); lent != (rc <= cap-slack) {
						fail("lend = %v", lent)
						continue
					} else if !lent {
						gk, _ := leafItems(n)
						if hk, _ := leafItems(r); !slices.Equal(gk, lk) || !slices.Equal(hk, rk) || p.keys()[1] != int64(cap*10+50) || tr.Stats().Lends != 0 {
							fail("a declined lend changed the leaves or the router")
						}
						continue
					}
					keys := slices.Concat(slices.Insert(lk, slot, key), rk)
					vals := slices.Concat(slices.Insert(lv, slot, 7), rv)
					m := (len(keys) + 1) / 2
					gk, gv := leafItems(n)
					hk, hv := leafItems(r)
					if !slices.Equal(gk, keys[:m]) || !slices.Equal(gv, vals[:m]) {
						fail("left %v=%v, want %v=%v", gk, gv, keys[:m], vals[:m])
					}
					if !slices.Equal(hk, keys[m:]) || !slices.Equal(hv, vals[m:]) {
						fail("neighbour %v=%v, want %v=%v", hk, hv, keys[m:], vals[m:])
					}
					if sep := keys[m]; n.high.Load() != sep || p.keys()[1] != sep || n.right.Load() != r {
						fail("high key %d, router %d, want both %d", n.high.Load(), p.keys()[1], sep)
					}
					if err := tr.CheckInvariants(); err != nil {
						fail("%v", err)
					}
					if st := tr.Stats(); st.Lends != 1 || st.Splits != 0 || tr.Len() != cap+rc+1 {
						fail("%d lends, %d splits, Len %d", st.Lends, st.Splits, tr.Len())
					}
				}
			}
		}
	}
}

// TestLendDeclinesAcrossParents: a full leaf that is its parent's last
// child splits, however roomy its right neighbour (the first child of the
// next parent), under every protocol; its parent's own last router is not
// the neighbour's to lower.
func TestLendDeclinesAcrossParents(t *testing.T) {
	for _, alg := range algorithms {
		// cap 4, fill .5: two keys per leaf and two leaves per parent, so
		// leaf 1 (keys 2, 3) is the last child of the first parent and
		// leaf 2 (keys 4, 5) the first of the second.
		keys := []int64{0, 1, 2, 3, 4, 5, 6, 7}
		vals := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
		for i := range keys {
			keys[i] *= 10
		}
		tr, err := BulkLoad(4, alg, keys, vals, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		tr.Insert(21, 1)
		tr.Insert(22, 1)
		tr.Insert(23, 1) // leaf 1 is full: 20, 21, 22, 30
		if st := tr.Stats(); st.Lends != 0 || st.Splits != 1 {
			t.Errorf("%v: %d lends and %d splits, want the last child to split", alg, st.Lends, st.Splits)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Errorf("%v: %v", alg, err)
		}
	}
}

// shape is what a tree's structure comes to: its leaf runs and values,
// height, splits and lends.
type shape struct {
	runs          [][]int64
	vals          []uint64
	height        int
	splits, lends int64
}

func shapeOf(tr *Tree) shape {
	runs, vals := leafRuns(tr)
	st := tr.Stats()
	return shape{runs, vals, tr.Height(), st.Splits, st.Lends}
}

func (s shape) equal(o shape) bool {
	return slices.EqualFunc(s.runs, o.runs, slices.Equal[[]int64]) && slices.Equal(s.vals, o.vals) &&
		s.height == o.height && s.splits == o.splits && s.lends == o.lends
}

// TestSequentialStreamSameTree pins the package doc's claim: the four
// protocols share one node kernel, so a sequential stream builds the same
// tree under all of them — the same leaf runs, height, splits and lends,
// whichever protocol decided where a lend's locks came from. Each
// capacity from 3 to 100 replays a seeded stream of inserts (some
// ascending runs, most random) and deletes, large enough to lend and to
// split inner nodes. The stream is sequential, so the race detector has
// nothing to watch: under it every eighth capacity runs.
func TestSequentialStreamSameTree(t *testing.T) {
	step := 1
	if raceEnabled {
		step = 8
	}
	for cap := 3; cap <= 100; cap += step {
		var trees []*Tree
		for _, alg := range algorithms {
			trees = append(trees, New(cap, alg))
		}
		src := xrand.New(uint64(cap))
		ops := 1500 + 3*cap*cap
		for i := 0; i < ops; i++ {
			k, v := src.Int63n(int64(ops)), uint64(i)
			del := src.Bernoulli(0.3)
			if i%8 == 0 {
				k = int64(ops + i) // an ascending run along the right edge
				del = false
			}
			for _, tr := range trees {
				if del {
					tr.Delete(k)
				} else {
					tr.Insert(k, v)
				}
			}
		}
		want := shapeOf(trees[0])
		if want.lends == 0 || want.splits == 0 {
			t.Fatalf("cap %d: %d lends and %d splits: the stream must exercise both", cap, want.lends, want.splits)
		}
		for _, tr := range trees[1:] {
			if got := shapeOf(tr); !got.equal(want) {
				t.Fatalf("cap %d: %v built height %d, %d splits, %d lends, %d leaves; %v height %d, %d splits, %d lends, %d leaves",
					cap, tr.Algorithm(), got.height, got.splits, got.lends, len(got.runs),
					trees[0].Algorithm(), want.height, want.splits, want.lends, len(want.runs))
			}
		}
		for _, tr := range trees {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("cap %d %v: %v", cap, tr.Algorithm(), err)
			}
		}
	}
}

// TestLendFill is the lend's purpose: a seeded paper-mix stream (q_s .3,
// q_i .5, q_d .2; random inserts, deletes of random present keys) at the
// serving capacity leaves the leaves at least .72 full. Split-only, they
// end near .69 ([9,10]).
func TestLendFill(t *testing.T) {
	if raceEnabled {
		t.Skip("sequential: nothing for the race detector to watch, at 50 times the cost")
	}
	const cap, ops = 64, 300000
	for _, alg := range []Algorithm{LinkType, OLC} {
		tr := New(cap, alg)
		src := xrand.New(1)
		var present []int64
		for i := 0; i < ops; i++ {
			switch u := src.Float64(); {
			case u < 0.3 && len(present) > 0:
				tr.Search(present[src.IntN(len(present))])
			case u < 0.8 || len(present) == 0:
				k := src.Int63n(1 << 40)
				if tr.Insert(k, uint64(i)) {
					present = append(present, k)
				}
			default:
				j := src.IntN(len(present))
				tr.Delete(present[j])
				present[j] = present[len(present)-1]
				present = present[:len(present)-1]
			}
		}
		runs, _ := leafRuns(tr)
		fill := float64(tr.Len()) / float64(len(runs)*cap)
		t.Logf("%v: %d keys in %d leaves, fill %.3f, %d splits, %d lends", alg, tr.Len(), len(runs), fill, tr.Stats().Splits, tr.Stats().Lends)
		if fill < 0.72 {
			t.Errorf("%v: leaves %.3f full, want >= .72", alg, fill)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOLCWalkSkipsLentItems: a latch-free leaf walk runs fn on its own
// copy of a leaf, holding nothing, so a lend can move the items just
// handed out into the neighbour the walk reads next. Here one does,
// between the walk's two leaves: the walk must resume past what it
// handed out, and see every key once.
func TestOLCWalkSkipsLentItems(t *testing.T) {
	tr, _, _, _ := twoLeaves(8, 2, OLC)
	var got []int64
	tr.RangeLeaves(math.MinInt64, math.MaxInt64, func(keys []int64, _ []uint64) bool {
		if len(got) == 0 {
			done := make(chan struct{})
			go func() {
				tr.Insert(15, 1)
				close(done)
			}()
			<-done
		}
		got = append(got, keys...)
		return true
	})
	want := []int64{10, 20, 30, 40, 50, 60, 70, 80, 180, 190}
	if tr.Stats().Lends != 1 || !slices.Equal(got, want) {
		t.Fatalf("%d lends; the walk saw %v, want %v", tr.Stats().Lends, got, want)
	}
}

// TestLendsUnderChurn is the lend's concurrency contract, for -race, under
// every protocol. Small leaves keep lends frequent: writers insert and
// delete the odd keys, half of them in located groups (Locate, then
// InsertAt and DeleteAt from the hints), each writer owning its own keys
// and holding every result to its own map; a searcher looks up resident
// even keys, by Search and by SearchAt from a hint; and leaf walks over
// random ranges must see their keys strictly ascending — no item twice,
// though a lend moves items into a leaf the walk is about to read — and
// every resident key of their range, with its value.
func TestLendsUnderChurn(t *testing.T) {
	const resident = 2000 // even keys 0, 2, …, 2·resident-2
	burst := 600 * time.Millisecond
	if testing.Short() {
		burst = 150 * time.Millisecond
	}
	resVal := func(k int64) uint64 { return uint64(k)*7 + 1 }
	for _, alg := range algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			tr := New(8, alg)
			for i := int64(0); i < resident; i++ {
				tr.Insert(2*i, resVal(2*i))
			}
			deadline := time.Now().Add(burst)
			var wg sync.WaitGroup
			for w := int64(0); w < 2; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					src := xrand.New(uint64(w) + 10)
					present := map[int64]bool{}
					keys, at := make([]int64, 16), make([]Hint, 16)
					for time.Now().Before(deadline) {
						for i := range keys {
							keys[i] = 4*src.Int63n(resident/2) + 2*w + 1 // odd, this writer's
						}
						located := src.Bernoulli(0.5)
						if located {
							tr.Locate(keys, at)
						}
						for i, k := range keys {
							var h *Hint
							if located {
								h = &at[i]
							}
							if src.Bernoulli(0.6) {
								if fresh := tr.InsertAt(k, uint64(k), h); fresh == present[k] {
									t.Errorf("Insert(%d) fresh %v, present %v", k, fresh, present[k])
									return
								}
								present[k] = true
							} else {
								if ok := tr.DeleteAt(k, h); ok != present[k] {
									t.Errorf("Delete(%d) = %v, present %v", k, ok, present[k])
									return
								}
								delete(present, k)
							}
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				src := xrand.New(3)
				keys, at := make([]int64, 16), make([]Hint, 16)
				for time.Now().Before(deadline) {
					for i := range keys {
						keys[i] = 2 * src.Int63n(resident)
					}
					tr.Locate(keys, at)
					for i, k := range keys {
						h := &at[i]
						if i%2 == 0 {
							h = nil
						}
						if v, ok := tr.SearchAt(k, h); !ok || v != resVal(k) {
							t.Errorf("Search(%d) = %d,%v, want %d", k, v, ok, resVal(k))
							return
						}
					}
				}
			}()
			src := xrand.New(7)
			for time.Now().Before(deadline) {
				lo, hi := src.Int63n(2*resident), src.Int63n(2*resident)
				if lo > hi {
					lo, hi = hi, lo
				}
				evens, seen, last := 0, false, int64(0)
				tr.RangeLeaves(lo, hi, func(keys []int64, vals []uint64) bool {
					for i, k := range keys {
						if k < lo || k > hi || (seen && k <= last) {
							t.Errorf("scan [%d, %d]: key %d after %d", lo, hi, k, last)
							return false
						}
						seen, last = true, k
						if k%2 == 0 {
							evens++
							if vals[i] != resVal(k) {
								t.Errorf("scan [%d, %d]: key %d has value %d", lo, hi, k, vals[i])
							}
						}
					}
					return true
				})
				if want := int((hi-hi%2)-(lo+lo%2))/2 + 1; evens != want {
					t.Errorf("scan over [%d, %d] saw %d resident keys, want %d", lo, hi, evens, want)
				}
				if t.Failed() {
					break
				}
			}
			wg.Wait()
			st := tr.Stats()
			t.Logf("%d lends, %d splits", st.Lends, st.Splits)
			if st.Lends == 0 {
				t.Error("no lend raced the readers")
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
