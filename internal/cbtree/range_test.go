package cbtree

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"btreeperf/internal/xrand"
)

// There is one way to iterate a tree — RangeLeaves, a leaf run at a time
// — and Range and SearchGE are wrappers over it. These tests hold all
// three to a sorted-slice oracle on a quiescent tree, and the walk to
// its concurrency contract under churn.

type kv struct {
	key int64
	val uint64
}

// TestRangeLeavesMatchesRangeAndOracle draws random [lo, hi] over a tree
// that holds both extreme keys and a band of lazily emptied leaves:
// bounds on, beside and between stored keys (so inside leaves and
// between them), inverted and empty ranges, hi = MaxInt64, and an early
// false from fn after a random number of runs or keys. Capacity 80 gives
// OLC leaves larger than one validated chunk.
func TestRangeLeavesMatchesRangeAndOracle(t *testing.T) {
	for _, alg := range algorithms {
		for _, cap := range []int{4, 16, 80} {
			t.Run(fmt.Sprintf("%v/cap=%d", alg, cap), func(t *testing.T) {
				tr := New(cap, alg)
				src := xrand.New(uint64(cap))
				stored := map[int64]uint64{}
				put := func(k int64, v uint64) {
					tr.Insert(k, v)
					stored[k] = v
				}
				put(math.MinInt64, 1)
				put(math.MaxInt64, 2)
				for i := 0; i < 4000; i++ {
					put(src.Int63n(40000), uint64(i)+3)
				}
				for k := int64(9000); k < 17000; k++ { // empties whole leaves, which stay in the chain
					tr.Delete(k)
					delete(stored, k)
				}
				var oracle []kv
				for k, v := range stored {
					oracle = append(oracle, kv{k, v})
				}
				sort.Slice(oracle, func(i, j int) bool { return oracle[i].key < oracle[j].key })

				bound := func() int64 {
					switch src.IntN(8) {
					case 0:
						return math.MaxInt64
					case 1:
						return math.MinInt64
					case 2, 3: // on or beside a stored key
						return oracle[1+src.IntN(len(oracle)-2)].key + int64(src.IntN(3)) - 1
					default:
						return src.Int63n(40100) - 50
					}
				}
				for trial := 0; trial < 600; trial++ {
					lo, hi := bound(), bound()
					if trial%4 != 0 && lo > hi {
						lo, hi = hi, lo // keep a quarter of the inverted ranges
					}
					var want []kv
					if lo <= hi {
						from := sort.Search(len(oracle), func(i int) bool { return oracle[i].key >= lo })
						to := sort.Search(len(oracle), func(i int) bool { return oracle[i].key > hi })
						want = oracle[from:to]
					}

					stopAfter := -1 // runs (RangeLeaves) or keys (Range) after which fn says false
					if trial%3 == 0 {
						stopAfter = 1 + src.IntN(4)
					}
					var got []kv
					runs, stopped := 0, false
					tr.RangeLeaves(lo, hi, func(keys []int64, vals []uint64) bool {
						if stopped {
							t.Fatalf("[%d, %d]: fn called again after returning false", lo, hi)
						}
						if len(keys) == 0 || len(keys) != len(vals) {
							t.Fatalf("[%d, %d]: run of %d keys, %d values", lo, hi, len(keys), len(vals))
						}
						for i, k := range keys {
							got = append(got, kv{k, vals[i]})
						}
						runs++
						stopped = runs == stopAfter
						return !stopped
					})
					if stopped {
						if len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
							t.Fatalf("RangeLeaves[%d, %d] stopped after %d runs: %v is no prefix of %v", lo, hi, runs, got, want)
						}
					} else if !slices.Equal(got, want) {
						t.Fatalf("RangeLeaves[%d, %d] = %v\nwant %v", lo, hi, got, want)
					}

					got = got[:0]
					tr.Range(lo, hi, func(k int64, v uint64) bool {
						got = append(got, kv{k, v})
						return len(got) != stopAfter
					})
					if stopAfter > 0 && stopAfter < len(want) {
						want = want[:stopAfter]
					}
					if !slices.Equal(got, want) {
						t.Fatalf("Range[%d, %d] stopping after %d = %v\nwant %v", lo, hi, stopAfter, got, want)
					}

					k, v, ok := tr.SearchGE(lo)
					from := sort.Search(len(oracle), func(i int) bool { return oracle[i].key >= lo })
					if ok != (from < len(oracle)) || (ok && (kv{k, v}) != oracle[from]) {
						t.Fatalf("SearchGE(%d) = %d,%d,%v; oracle position %d of %d", lo, k, v, ok, from, len(oracle))
					}
				}
			})
		}
	}
}

// TestRangeLeavesUnderChurn is the walk's concurrency contract, under
// the race detector in CI: while writers insert and delete the odd keys
// — splitting leaves ahead of, under and behind the scan, and emptying
// them — every scan sees its keys strictly ascending and inside its
// bounds, and sees every even key (resident throughout) of its range
// exactly once, with its value. The runs are read inside fn the way the
// server reads them: in place, under whatever the protocol holds.
func TestRangeLeavesUnderChurn(t *testing.T) {
	const resident = 3000 // even keys 0, 2, …, 2·resident-2
	for _, alg := range []Algorithm{LinkType, OLC} {
		t.Run(alg.String(), func(t *testing.T) {
			tr := New(8, alg)
			for i := int64(0); i < resident; i++ {
				tr.Insert(2*i, uint64(14*i))
			}
			stop := make(chan struct{})
			var churn sync.WaitGroup
			for w := uint64(0); w < 2; w++ {
				churn.Add(1)
				go func(src *xrand.Source) {
					defer churn.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						k := 2*src.Int63n(resident) + 1
						if src.Bernoulli(0.55) {
							tr.Insert(k, 1)
						} else {
							tr.Delete(k)
						}
					}
				}(xrand.New(100 + w))
			}
			src := xrand.New(7)
			for scan := 0; scan < 150; scan++ {
				lo, hi := src.Int63n(2*resident), src.Int63n(2*resident)
				if lo > hi {
					lo, hi = hi, lo
				}
				if scan%10 == 0 {
					lo, hi = math.MinInt64, math.MaxInt64
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
							if vals[i] != uint64(7*k) {
								t.Errorf("scan [%d, %d]: key %d has value %d", lo, hi, k, vals[i])
							}
						}
					}
					return true
				})
				first, end := max(lo, 0), min(hi, 2*resident-2)
				want := int((end-end%2)-(first+first%2))/2 + 1
				if evens != want {
					t.Fatalf("scan %d over [%d, %d] saw %d resident keys, want %d", scan, lo, hi, evens, want)
				}
			}
			close(stop)
			churn.Wait()
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
