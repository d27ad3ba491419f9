package cbtree

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"btreeperf/internal/xrand"
)

// TestOLCInnerChurn is the in-place inner write's torn-read check, meant
// for -race. Writers grow a small-capacity OLC tree by inserts alone, each
// into keys of its own, one of them a located group at a time, so leaves
// split all the time and their parents take the new entries in place and
// split in turn: the tree grows from 64 keys to tens of thousands and
// several levels. Latch-free readers ask Search, Locate with SearchAt,
// and RangeLeaves, and every answer is held to an oracle: a resident key
// (inserted before the burst, never written again) is there with its
// value; a writer's key is there with its value once the writer has
// published that its insert returned; any key read carries the value its
// writer stored; and a scan sees each resident in its range exactly once
// and its keys in ascending order. A reader that trusted a route through
// an inner node mid-shift or mid-split would miss a key or read one
// twice.
func TestOLCInnerChurn(t *testing.T) {
	for _, cap := range []int{3, 4, 8} {
		t.Run(fmt.Sprint("cap", cap), func(t *testing.T) { innerChurn(t, cap) })
	}
}

func innerChurn(t *testing.T, cap int) {
	const (
		residents = 64
		writers   = 2
		stride    = (writers + 1) << 10 // resident keys are multiples of stride
		perWriter = residents * stride / (writers + 1)
		group     = 32
	)
	burst := time.Second
	if testing.Short() {
		burst = 200 * time.Millisecond
	}
	resVal := func(k int64) uint64 { return uint64(k)*7 + 1 }
	wVal := func(k int64) uint64 { return uint64(k)*3 + 2 }
	// writerKey is writer w's j-th key: scattered over the residents'
	// span (7919 is coprime to perWriter), never a multiple of writers+1,
	// so never a resident's or another writer's.
	writerKey := func(w, j int) int64 { return int64(j*7919%perWriter*(writers+1) + w + 1) }
	want := func(k int64) uint64 {
		if k%stride == 0 {
			return resVal(k)
		}
		return wVal(k)
	}

	tr := New(cap, OLC)
	for i := int64(0); i < residents; i++ {
		tr.Insert(i*stride, resVal(i*stride))
	}
	var published [writers]atomic.Int64 // writer w's keys 0..published-1 are in
	var done atomic.Bool
	var wwg, rwg sync.WaitGroup
	deadline := time.Now().Add(burst)
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			keys, at := make([]int64, group), make([]Hint, group)
			for j := 0; j+group <= perWriter && time.Now().Before(deadline); j += group {
				for i := range keys {
					keys[i] = writerKey(w, j+i)
				}
				if w == 1 {
					tr.Locate(keys, at)
				}
				for i, k := range keys {
					var h *Hint
					if w == 1 {
						h = &at[i]
					}
					if !tr.InsertAt(k, wVal(k), h) {
						t.Errorf("Insert(%d) found the key already there", k)
						return
					}
					published[w].Store(int64(j + i + 1))
				}
			}
		}(w)
	}
	// pick returns a key the oracle knows is in: a resident, or a
	// writer's key whose insert was published before the call.
	pick := func(src *xrand.Source) int64 {
		w := int(src.Int63n(writers + 1))
		if w == writers {
			return src.Int63n(residents) * stride
		}
		n := published[w].Load()
		if n == 0 {
			return 0
		}
		return writerKey(w, int(src.Int63n(n)))
	}
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			src := xrand.New(uint64(r) + 100)
			keys, at := make([]int64, group), make([]Hint, group)
			for !done.Load() {
				k := pick(src)
				if v, ok := tr.Search(k); !ok || v != want(k) {
					t.Errorf("Search(%d) = %d,%v, want %d", k, v, ok, want(k))
					return
				}
				for i := range keys {
					keys[i] = pick(src)
				}
				tr.Locate(keys, at)
				for i, k := range keys {
					h := &at[i]
					if h.leaf != nil && (!h.found || h.val != want(k)) {
						t.Errorf("Locate(%d) = %d,%v, want %d", k, h.val, h.found, want(k))
						return
					}
					if v, ok := tr.SearchAt(k, h); !ok || v != want(k) {
						t.Errorf("SearchAt(%d) = %d,%v, want %d", k, v, ok, want(k))
						return
					}
				}
				lo := src.Int63n(residents) * stride
				hi := lo + 2*stride
				last, seen := int64(-1), int64(0)
				tr.RangeLeaves(lo, hi, func(ks []int64, vs []uint64) bool {
					for i, k := range ks {
						if k <= last || k < lo || k > hi || vs[i] != want(k) {
							t.Errorf("RangeLeaves(%d,%d) emitted %d=%d after %d", lo, hi, k, vs[i], last)
						}
						if k%stride == 0 {
							seen++
						}
						last = k
					}
					return true
				})
				if n := min(hi, (residents-1)*stride)/stride - lo/stride + 1; seen != n {
					t.Errorf("RangeLeaves(%d,%d) saw %d residents, want %d", lo, hi, seen, n)
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
	for w := range published {
		for j := 0; j < int(published[w].Load()); j++ {
			k := writerKey(w, j)
			if v, ok := tr.Search(k); !ok || v != wVal(k) {
				t.Fatalf("writer %d's key %d = %d,%v after the burst", w, k, v, ok)
			}
		}
	}
	if tr.Height() < 4 {
		t.Fatalf("the burst grew the tree to height %d only: too few inner splits", tr.Height())
	}
	st := tr.Stats()
	t.Logf("%d keys, height %d, %d splits, %d read restarts, %d fallbacks, %d stale hints",
		tr.Len(), tr.Height(), st.Splits, st.ReadRestarts, st.ReadFallbacks, st.StaleHints)
}
