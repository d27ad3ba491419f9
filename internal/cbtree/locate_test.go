package cbtree

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"btreeperf/internal/lock"
	"btreeperf/internal/xrand"
)

// Named interleavings for a located leaf: something happens between
// Locate and the operation that starts from its hint, and the operation
// must still see the tree as of the moment it runs.

// located returns an OLC tree of capacity 4 holding 0, 10, …, 990 (value
// = key) and key's hint in it.
func located(t *testing.T, key int64) (*Tree, *Hint) {
	t.Helper()
	tr := New(4, OLC)
	for k := int64(0); k < 1000; k += 10 {
		tr.Insert(k, uint64(k))
	}
	at := make([]Hint, 1)
	tr.Locate([]int64{key}, at)
	if h := &at[0]; h.leaf == nil || h.depth != tr.Height()-1 || h.found != (key%10 == 0) {
		t.Fatalf("Locate(%d): leaf %p, path of %d at height %d, found %v", key, h.leaf, h.depth, tr.Height(), h.found)
	}
	return tr, &at[0]
}

// refresh makes h current again, as if its operation had validated it
// just before a writer changed its leaf: the window between the
// validation and the grant of the leaf's lock, which a concurrent writer
// can hit and a sequential test cannot.
func refresh(h *Hint) {
	h.ver = h.leaf.mu.Version()
	for i := range h.depth {
		h.vers[i] = h.path[i].mu.Version()
	}
}

// checkStale fails unless the tree counted want stale hints since before.
func checkStale(t *testing.T, tr *Tree, before, want int64) {
	t.Helper()
	if got := tr.Stats().StaleHints - before; got != want {
		t.Fatalf("%d stale hints counted, want %d", got, want)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLocatedLeafSplits: the hinted leaf splits and key moves to the new
// right sibling. A get and a delete find the hint stale and search from
// the root; a put whose leaf split only after its hint validated locks
// the old leaf and moves right.
func TestLocatedLeafSplits(t *testing.T) {
	const key = 500
	for _, op := range []string{"get", "delete", "put", "put after validation"} {
		t.Run(op, func(t *testing.T) {
			tr, h := located(t, key)
			for k := int64(key - 9); h.leaf.covers(key); k++ { // splits from below
				if k == key {
					t.Fatal("key never left its leaf")
				}
				tr.Insert(k, uint64(k))
			}
			stale, crossings := tr.Stats().StaleHints, tr.Stats().Crossings
			switch op {
			case "get":
				if v, ok := tr.SearchAt(key, h); !ok || v != key {
					t.Fatalf("SearchAt = %d,%v", v, ok)
				}
			case "delete":
				if !tr.DeleteAt(key, h) {
					t.Fatal("DeleteAt missed the key")
				}
			default:
				wantStale := int64(1)
				if op != "put" {
					refresh(h)
					wantStale = 0
				}
				if tr.InsertAt(key, 7, h) {
					t.Fatal("InsertAt stored the key afresh")
				}
				if v, _ := tr.Search(key); v != 7 {
					t.Fatalf("Search after InsertAt = %d", v)
				}
				if op != "put" && tr.Stats().Crossings == crossings {
					t.Fatal("the put never moved right")
				}
				checkStale(t, tr, stale, wantStale)
				return
			}
			checkStale(t, tr, stale, 1)
		})
	}
}

// TestLocatedRootGrows: the root grows two levels above the path Locate
// recorded, as in TestSplitRepairAfterRootGrowth: keys under 2000 split
// the rightmost leaf's left neighbours until the old root has split, the
// root is two levels above it and the half that took the leaf is full.
// A get of 5000 is still answered from its hint (its leaf never
// changed); a put of 6000 finds its path stale and descends from the root.
// A put whose hint validated before the growth, which runs while it holds
// the leaf, splits the leaf and the full old root with the hinted path
// used up, and finds the parent level from the new root.
func TestLocatedRootGrows(t *testing.T) {
	const cap = 3
	for _, op := range []string{"get", "put", "put after validation"} {
		t.Run(op, func(t *testing.T) {
			tr := New(cap, OLC)
			for k := int64(1000); k <= 5000; k += 1000 {
				tr.Insert(k, uint64(k))
			}
			at := make([]Hint, 2)
			tr.Locate([]int64{5000, 6000}, at)
			leaf := at[1].leaf
			if tr.Height() != 2 || at[1].depth != 1 || leaf.items() != cap || !at[0].found {
				t.Fatalf("setup: height %d, path of %d, leaf holds %d of %d", tr.Height(), at[1].depth, leaf.items(), cap)
			}
			parent := func() *node { // the level-2 node holding the leaf
				n := tr.root.Load()
				for n.level > 2 {
					n = n.children[len(n.children)-1]
				}
				return n
			}
			grow := func() {
				for k := int64(1001); tr.Height() < 4 || parent().items() < cap; k++ {
					if k == 2000 {
						t.Fatal("the old root never split and refilled")
					}
					tr.Insert(k, uint64(k))
				}
				if p := parent(); p.children[len(p.children)-1] != leaf || p == at[1].path[0] {
					t.Fatal("the located leaf is not the rightmost, or kept the old root as its parent")
				}
			}
			stale, wantStale := tr.Stats().StaleHints, int64(0)
			switch op {
			case "get":
				grow()
				if v, ok := tr.SearchAt(5000, &at[0]); !ok || v != 5000 {
					t.Fatalf("SearchAt = %d,%v", v, ok)
				}
			case "put":
				grow()
				wantStale = 1
				fallthrough
			default:
				ran := op == "put"
				if !ran {
					leaf.mu.SetProbe(&hookProbe{fn: func() { grow(); ran = true }})
				}
				if !tr.InsertAt(6000, 6000, &at[1]) || !ran {
					t.Fatalf("InsertAt did not store 6000 afresh (growth ran: %v)", ran)
				}
				if v, ok := tr.Search(6000); !ok || v != 6000 {
					t.Fatalf("Search after InsertAt = %d,%v", v, ok)
				}
			}
			checkStale(t, tr, stale, wantStale)
		})
	}
}

// TestLocatedKeyDeleted: the key is deleted after it was located.
func TestLocatedKeyDeleted(t *testing.T) {
	const key = 500
	for _, op := range []string{"get", "put", "delete"} {
		t.Run(op, func(t *testing.T) {
			tr, h := located(t, key)
			tr.Delete(key)
			stale := tr.Stats().StaleHints
			switch op {
			case "get":
				if v, ok := tr.SearchAt(key, h); ok {
					t.Fatalf("SearchAt found the deleted key: %d", v)
				}
			case "put":
				if !tr.InsertAt(key, 7, h) {
					t.Fatal("InsertAt did not store the deleted key afresh")
				}
			case "delete":
				if tr.DeleteAt(key, h) {
					t.Fatal("DeleteAt deleted the key twice")
				}
			}
			checkStale(t, tr, stale, 1)
		})
	}
}

// TestLocatedGroupOverwrites: an earlier operation of the same group
// changes the key a later one was located for. A section that changed
// nothing (deleting an absent key) leaves the later hint current.
func TestLocatedGroupOverwrites(t *testing.T) {
	const key = 500
	for _, tc := range []struct {
		name  string
		first func(tr *Tree, h *Hint)
		then  func(tr *Tree, h *Hint) (uint64, bool)
		want  uint64
		ok    bool
		stale int64
	}{
		{"put, get", func(tr *Tree, h *Hint) { tr.InsertAt(key, 7, h) }, getAt, 7, true, 1},
		{"put, put", func(tr *Tree, h *Hint) { tr.InsertAt(key, 7, h) }, putAt8, 8, true, 1},
		{"delete, get", func(tr *Tree, h *Hint) { tr.DeleteAt(key, h) }, getAt, 0, false, 1},
		{"get, get", func(tr *Tree, h *Hint) { tr.SearchAt(key, h) }, getAt, key, true, 0},
		{"absent delete, get", func(tr *Tree, h *Hint) { tr.DeleteAt(key+1, h) }, getAt, key, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, _ := located(t, key)
			keys := []int64{key, key}
			if tc.name == "absent delete, get" {
				keys[0] = key + 1
			}
			at := make([]Hint, 2)
			tr.Locate(keys, at)
			stale := tr.Stats().StaleHints
			tc.first(tr, &at[0])
			if v, ok := tc.then(tr, &at[1]); v != tc.want || ok != tc.ok {
				t.Fatalf("second op = %d,%v, want %d,%v", v, ok, tc.want, tc.ok)
			}
			checkStale(t, tr, stale, tc.stale)
		})
	}
}

func getAt(tr *Tree, h *Hint) (uint64, bool) { return tr.SearchAt(500, h) }

func putAt8(tr *Tree, h *Hint) (uint64, bool) {
	if tr.InsertAt(500, 8, h) {
		return 0, false
	}
	return tr.Search(500)
}

// TestLocateUnderChurn is TestOLCTornReadStress for located operations,
// meant for -race. Writers churn the keys between resident keys nobody
// else touches, half of them a located group at a time; locators locate
// groups of resident keys and must find every one with its value, in
// the hint and through SearchAt, every time. Afterwards the invariants
// must hold and every resident must be in place.
func TestLocateUnderChurn(t *testing.T) {
	for _, cap := range []int{3, 64} {
		t.Run(fmt.Sprint("cap", cap), func(t *testing.T) { locateChurn(t, cap) })
	}
}

func locateChurn(t *testing.T, cap int) {
	const (
		residents = 256
		stride    = 8 // resident keys are multiples of stride
		group     = 32
	)
	burst := time.Second
	if testing.Short() {
		burst = 200 * time.Millisecond
	}
	resVal := func(k int64) uint64 { return uint64(k)*7 + 1 }
	tr := New(cap, OLC)
	for i := int64(0); i < residents; i++ {
		tr.Insert(i*stride, resVal(i*stride))
	}
	var done atomic.Bool
	var wwg, lwg sync.WaitGroup
	deadline := time.Now().Add(burst)
	for w := 0; w < 4; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			src := xrand.New(uint64(w) + 1)
			keys, at := make([]int64, group), make([]Hint, group)
			for time.Now().Before(deadline) {
				for i := range keys {
					keys[i] = src.Int63n(residents)*stride + 1 + src.Int63n(stride-1)
				}
				if w%2 == 1 {
					tr.Locate(keys, at)
				}
				for i, k := range keys {
					var h *Hint
					if w%2 == 1 {
						h = &at[i]
					}
					if src.Bernoulli(0.6) {
						tr.InsertAt(k, uint64(k), h)
					} else {
						tr.DeleteAt(k, h)
					}
				}
			}
		}(w)
	}
	var empty, total atomic.Int64
	for l := 0; l < 2; l++ {
		lwg.Add(1)
		go func(l int) {
			defer lwg.Done()
			src := xrand.New(uint64(l) + 100)
			keys, at := make([]int64, group), make([]Hint, group)
			for !done.Load() {
				for i := range keys {
					keys[i] = src.Int63n(residents) * stride
				}
				tr.Locate(keys, at)
				for i, k := range keys {
					h := &at[i]
					total.Add(1)
					if h.leaf == nil {
						empty.Add(1)
					} else if !h.found || h.val != resVal(k) {
						t.Errorf("Locate(%d) = %d,%v", k, h.val, h.found)
						return
					}
					if v, ok := tr.SearchAt(k, h); !ok || v != resVal(k) {
						t.Errorf("SearchAt(%d) = %d,%v", k, v, ok)
						return
					}
				}
			}
		}(l)
	}
	wwg.Wait()
	done.Store(true)
	lwg.Wait()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < residents; i++ {
		if v, ok := tr.Search(i * stride); !ok || v != resVal(i*stride) {
			t.Fatalf("resident %d = %d,%v after the burst", i*stride, v, ok)
		}
	}
	st := tr.Stats()
	t.Logf("%d of %d located residents had an empty hint; %d stale hints, %d splits", empty.Load(), total.Load(), st.StaleHints, st.Splits)
}

// lockCounts is a listening lock.Probe that counts acquisitions by class.
type lockCounts struct{ r, w atomic.Int64 }

func (c *lockCounts) Acquired(write bool, _ int64) {
	if write {
		c.w.Add(1)
	} else {
		c.r.Add(1)
	}
}
func (*lockCounts) Held(bool, int64)     {}
func (*lockCounts) WriterPresence(int64) {}
func (*lockCounts) Gate() *lock.Gate     { return nil }

// TestLocateMatchesPlainCalls replays one operation stream into two OLC
// trees, one by the plain calls, one located in groups of 32 and applied
// in order from the hints. Locating changes where an operation starts,
// never what it does: every result, the shape (splits, height, every
// leaf's run, as in TestOLCMatchesLinkType) and the R and W lock
// acquisitions at every level must agree.
func TestLocateMatchesPlainCalls(t *testing.T) {
	const group = 32
	for _, cap := range []int{3, 4, 16, 64, 100} {
		var counts [2][24]lockCounts
		var trees [2]*Tree
		for i := range trees {
			trees[i] = New(cap, OLC)
			trees[i].Instrument(func(level int) lock.Probe { return &counts[i][level] })
		}
		type op struct {
			kind int
			key  int64
			val  uint64
		}
		src := rand.New(rand.NewPCG(uint64(cap), 1))
		ops := make([]op, group)
		keys, at := make([]int64, group), make([]Hint, group)
		for n := 0; n < 30000; n += group {
			for i := range ops {
				ops[i] = op{src.IntN(8), src.Int64N(5000), src.Uint64()}
				keys[i] = ops[i].key
			}
			trees[1].Locate(keys, at)
			for i, o := range ops {
				var got [2][2]uint64
				for j, tr := range trees {
					var h *Hint
					if j == 1 {
						h = &at[i]
					}
					switch {
					case o.kind < 3:
						got[j][0] = flag01(tr.InsertAt(o.key, o.val, h))
					case o.kind < 5:
						got[j][0] = flag01(tr.DeleteAt(o.key, h))
					default:
						v, ok := tr.SearchAt(o.key, h)
						got[j] = [2]uint64{flag01(ok), v}
					}
				}
				if got[0] != got[1] {
					t.Fatalf("cap %d op %d (kind %d, key %d): plain %v, located %v", cap, n+i, o.kind, o.key, got[0], got[1])
				}
			}
		}
		runs0, vals0 := leafRuns(trees[0])
		runs1, vals1 := leafRuns(trees[1])
		if !slices.EqualFunc(runs0, runs1, slices.Equal[[]int64]) || !slices.Equal(vals0, vals1) {
			t.Fatalf("cap %d: plain and located calls put their leaf boundaries in different places", cap)
		}
		st0, st1 := trees[0].Stats(), trees[1].Stats()
		if st0.Splits != st1.Splits || trees[0].Height() != trees[1].Height() {
			t.Fatalf("cap %d: shapes differ: %d splits height %d plain, %d splits height %d located",
				cap, st0.Splits, trees[0].Height(), st1.Splits, trees[1].Height())
		}
		for level := range counts[0] {
			p, l := &counts[0][level], &counts[1][level]
			if p.r.Load() != l.r.Load() || p.w.Load() != l.w.Load() {
				t.Fatalf("cap %d level %d: plain took %d R and %d W locks, located %d R and %d W",
					cap, level, p.r.Load(), p.w.Load(), l.r.Load(), l.w.Load())
			}
		}
		if st1.StaleHints == 0 || counts[1][1].w.Load() == 0 {
			t.Fatalf("cap %d: the stream never made a hint stale (%d) or took a leaf W lock", cap, st1.StaleHints)
		}
		if err := trees[1].CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		t.Logf("cap %d: %d splits, height %d, %d stale hints", cap, st1.Splits, trees[1].Height(), st1.StaleHints)
	}
}

func flag01(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
