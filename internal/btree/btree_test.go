package btree

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"btreeperf/internal/xrand"
)

func TestNewEmpty(t *testing.T) {
	tr := New(13, MergeAtEmpty)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("empty tree: len=%d height=%d", tr.Len(), tr.Height())
	}
	if _, ok := tr.Search(5); ok {
		t.Fatal("found key in empty tree")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewSmallCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(2) did not panic")
		}
	}()
	New(2, MergeAtEmpty)
}

func TestInsertSearchSequential(t *testing.T) {
	tr := New(4, MergeAtEmpty)
	const n = 1000
	for i := int64(0); i < n; i++ {
		if !tr.Insert(i, uint64(i*10)) {
			t.Fatalf("Insert(%d) reported duplicate", i)
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
		if !ok || v != uint64(i*10) {
			t.Fatalf("Search(%d) = %d,%v", i, v, ok)
		}
	}
	if _, ok := tr.Search(n + 1); ok {
		t.Fatal("found absent key")
	}
}

func TestInsertDuplicateReplaces(t *testing.T) {
	tr := New(5, MergeAtEmpty)
	tr.Insert(7, 1)
	if tr.Insert(7, 2) {
		t.Fatal("duplicate insert reported fresh")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if v, _ := tr.Search(7); v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
}

func TestInsertReverseAndRandomOrders(t *testing.T) {
	for _, order := range []string{"reverse", "random"} {
		tr := New(7, MergeAtEmpty)
		src := rand.New(rand.NewPCG(5, 0))
		const n = 2000
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(i)
		}
		if order == "reverse" {
			for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
				keys[i], keys[j] = keys[j], keys[i]
			}
		} else {
			for _, p := range src.Perm(n) {
				keys = append(keys, int64(p))
			}
			keys = keys[n:]
		}
		for _, k := range keys {
			tr.Insert(k, uint64(k))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", order, err)
		}
		if tr.Len() != n {
			t.Fatalf("%s: Len = %d", order, tr.Len())
		}
	}
}

func TestDeleteBasic(t *testing.T) {
	tr := New(4, MergeAtEmpty)
	for i := int64(0); i < 100; i++ {
		tr.Insert(i, uint64(i))
	}
	for i := int64(0); i < 100; i += 2 {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d) missing", i)
		}
	}
	if tr.Delete(0) {
		t.Fatal("double delete succeeded")
	}
	if tr.Len() != 50 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		_, ok := tr.Search(i)
		if want := i%2 == 1; ok != want {
			t.Fatalf("Search(%d) = %v, want %v", i, ok, want)
		}
	}
}

func TestDeleteAllMergeAtEmpty(t *testing.T) {
	tr := New(4, MergeAtEmpty)
	const n = 500
	for i := int64(0); i < n; i++ {
		tr.Insert(i, uint64(i))
	}
	for i := int64(0); i < n; i++ {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d)", i)
		}
		if i%37 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after Delete(%d): %v", i, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Height() != 1 {
		t.Fatalf("Height = %d after emptying", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAllMergeAtHalf(t *testing.T) {
	tr := New(5, MergeAtHalf)
	const n = 500
	src := rand.New(rand.NewPCG(9, 0))
	perm := src.Perm(n)
	for i := int64(0); i < n; i++ {
		tr.Insert(i, uint64(i))
	}
	for _, p := range perm {
		if !tr.Delete(int64(p)) {
			t.Fatalf("Delete(%d)", p)
		}
		if p%23 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after Delete(%d): %v", p, err)
			}
		}
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("len=%d height=%d", tr.Len(), tr.Height())
	}
}

// TestRandomOpsAgainstModel runs a randomized workload against a map model
// under both policies and several capacities, checking invariants
// periodically and full contents at the end.
func TestRandomOpsAgainstModel(t *testing.T) {
	for _, policy := range []Policy{MergeAtEmpty, MergeAtHalf} {
		for _, cap := range []int{3, 4, 13, 59} {
			t.Run(fmt.Sprintf("%v/cap%d", policy, cap), func(t *testing.T) {
				tr := New(cap, policy)
				model := map[int64]uint64{}
				src := rand.New(rand.NewPCG(uint64(cap)*1000, 0))
				const ops = 20000
				const keyspace = 3000
				for i := 0; i < ops; i++ {
					k := src.Int64N(keyspace)
					switch src.IntN(3) {
					case 0: // insert
						v := src.Uint64()
						_, existed := model[k]
						fresh := tr.Insert(k, v)
						if fresh == existed {
							t.Fatalf("op %d: Insert(%d) fresh=%v, model existed=%v", i, k, fresh, existed)
						}
						model[k] = v
					case 1: // delete
						_, existed := model[k]
						if got := tr.Delete(k); got != existed {
							t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, existed)
						}
						delete(model, k)
					case 2: // search
						want, existed := model[k]
						got, ok := tr.Search(k)
						if ok != existed || (ok && got != want) {
							t.Fatalf("op %d: Search(%d) = %d,%v want %d,%v", i, k, got, ok, want, existed)
						}
					}
					if i%2500 == 0 {
						if err := tr.CheckInvariants(); err != nil {
							t.Fatalf("op %d: %v", i, err)
						}
					}
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if tr.Len() != len(model) {
					t.Fatalf("Len = %d, model = %d", tr.Len(), len(model))
				}
				for k, want := range model {
					got, ok := tr.Search(k)
					if !ok || got != want {
						t.Fatalf("Search(%d) = %d,%v want %d", k, got, ok, want)
					}
				}
			})
		}
	}
}

func TestRangeScan(t *testing.T) {
	tr := New(4, MergeAtEmpty)
	for i := int64(0); i < 100; i += 2 {
		tr.Insert(i, uint64(i))
	}
	var got []int64
	tr.Range(10, 20, func(k int64, v uint64) bool {
		if v != uint64(k) {
			t.Fatalf("value mismatch at %d", k)
		}
		got = append(got, k)
		return true
	})
	want := []int64{10, 12, 14, 16, 18, 20}
	if len(got) != len(want) {
		t.Fatalf("Range = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range = %v, want %v", got, want)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tr := New(4, MergeAtEmpty)
	for i := int64(0); i < 50; i++ {
		tr.Insert(i, 0)
	}
	n := 0
	tr.Range(0, 49, func(int64, uint64) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("visited %d, want 5", n)
	}
}

func TestRangeEmptyInterval(t *testing.T) {
	tr := New(4, MergeAtEmpty)
	for i := int64(0); i < 50; i++ {
		tr.Insert(i*10, 0)
	}
	n := 0
	tr.Range(11, 19, func(int64, uint64) bool { n++; return true })
	if n != 0 {
		t.Fatalf("visited %d keys in empty interval", n)
	}
}

func TestSafetyPredicates(t *testing.T) {
	tr := New(4, MergeAtEmpty)
	leaf := tr.Root()
	if !tr.InsertSafe(leaf) {
		t.Fatal("empty leaf should be insert-safe")
	}
	for i := int64(0); i < 4; i++ {
		tr.Insert(i, 0)
	}
	if tr.InsertSafe(tr.Root()) {
		t.Fatal("full leaf should be insert-unsafe")
	}
	// Root is always delete-safe.
	if !tr.DeleteSafe(tr.Root()) {
		t.Fatal("root should be delete-safe")
	}
	// Grow to two levels; a 1-item non-root leaf is delete-unsafe.
	for i := int64(4); i < 40; i++ {
		tr.Insert(i, 0)
	}
	n := tr.Root()
	for !n.IsLeaf() {
		n = n.FindChild(0)
	}
	for n.Items() > 1 {
		tr.Delete(n.keys[0])
	}
	if tr.DeleteSafe(n) {
		t.Fatal("1-item non-root leaf should be delete-unsafe under merge-at-empty")
	}
}

func TestSplitMaintainsLinks(t *testing.T) {
	tr := New(5, MergeAtEmpty)
	for i := int64(0); i < 5; i++ {
		tr.Insert(i, 0)
	}
	leaf := tr.Root()
	sib, sep := tr.Split(leaf)
	tr.GrowRoot(leaf, sep, sib)
	if leaf.Right() != sib {
		t.Fatal("split did not link sibling")
	}
	if h, ok := leaf.HighKey(); !ok || h != sep {
		t.Fatalf("left high = %d,%v want %d", h, ok, sep)
	}
	if _, ok := sib.HighKey(); ok {
		t.Fatal("rightmost sibling should have infinite high key")
	}
	if !leaf.Covers(sep - 1) {
		t.Fatal("left node should cover keys below separator")
	}
	if leaf.Covers(sep) {
		t.Fatal("left node should not cover the separator")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGrowRootStalePanics(t *testing.T) {
	tr := New(5, MergeAtEmpty)
	for i := int64(0); i < 5; i++ {
		tr.Insert(i, 0)
	}
	leaf := tr.Root()
	sib, sep := tr.Split(leaf)
	tr.GrowRoot(leaf, sep, sib)
	defer func() {
		if recover() == nil {
			t.Fatal("stale GrowRoot did not panic")
		}
	}()
	tr.GrowRoot(leaf, sep, sib)
}

func TestHeightGrowth(t *testing.T) {
	tr := New(3, MergeAtEmpty)
	prev := tr.Height()
	for i := int64(0); i < 200; i++ {
		tr.Insert(i, 0)
		if h := tr.Height(); h < prev {
			t.Fatalf("height decreased during inserts: %d -> %d", prev, h)
		} else {
			prev = h
		}
	}
	if tr.Height() < 4 {
		t.Fatalf("200 keys at cap 3 should give height >= 4, got %d", tr.Height())
	}
}

func TestMergeAtEmptyNeverUnderflows(t *testing.T) {
	// Merge-at-empty keeps nodes even when nearly empty; only emptiness
	// removes them. Verify no restructuring happens above the threshold.
	tr := New(10, MergeAtEmpty)
	for i := int64(0); i < 1000; i++ {
		tr.Insert(i, 0)
	}
	base := tr.Stats()
	// Delete one key from each leaf region — far from emptying nodes.
	for i := int64(0); i < 1000; i += 100 {
		tr.Delete(i)
	}
	if got := tr.Stats(); got.Removes != base.Removes {
		t.Fatalf("sparse deletes caused %d node removals", got.Removes-base.Removes)
	}
}

func TestMergeAtHalfRestructuresMore(t *testing.T) {
	// The paper's motivation for merge-at-empty ([9,10]): with more inserts
	// than deletes, merge-at-half restructures far more often on deletes.
	mk := func(policy Policy) Stats {
		tr := New(8, policy)
		src := xrand.New(77)
		for i := 0; i < 30000; i++ {
			k := src.Int63n(5000)
			if src.Float64() < 0.6 {
				tr.Insert(k, 0)
			} else {
				tr.Delete(k)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return tr.Stats()
	}
	emptyStats := mk(MergeAtEmpty)
	halfStats := mk(MergeAtHalf)
	emptyRestr := emptyStats.Removes
	halfRestr := halfStats.Merges + halfStats.Borrows
	if halfRestr <= emptyRestr {
		t.Fatalf("merge-at-half restructures (%d) should exceed merge-at-empty removals (%d)",
			halfRestr, emptyRestr)
	}
}

func TestLeafChainCoversAllKeys(t *testing.T) {
	tr := New(6, MergeAtEmpty)
	src := xrand.New(123)
	for i := 0; i < 5000; i++ {
		tr.Insert(src.Int63n(100000), 0)
	}
	// Walk the leaf chain and confirm it sees exactly Len() keys in order.
	n := tr.Root()
	for !n.IsLeaf() {
		n = n.children[0]
	}
	count := 0
	last := int64(-1 << 62)
	for ; n != nil; n = n.Right() {
		for _, k := range n.keys {
			if k <= last {
				t.Fatalf("leaf chain out of order: %d after %d", k, last)
			}
			last = k
			count++
		}
	}
	if count != tr.Len() {
		t.Fatalf("leaf chain saw %d keys, Len = %d", count, tr.Len())
	}
}

func TestStructureStats(t *testing.T) {
	tr := New(13, MergeAtEmpty)
	src := xrand.New(3)
	for i := 0; i < 40000; i++ {
		tr.Insert(src.Int63n(1<<31), uint64(i))
	}
	stats := tr.StructureStats()
	if len(stats) != tr.Height() {
		t.Fatalf("StructureStats has %d levels, height %d", len(stats), tr.Height())
	}
	// Paper setup: ~40k items at N=13 yields a 5-level tree with a root
	// fanout around 6 and interior utilization near ln 2.
	if tr.Height() != 5 {
		t.Fatalf("height = %d, want 5 (paper's configuration)", tr.Height())
	}
	rf := tr.RootFanout()
	if rf < 3 || rf > 12 {
		t.Fatalf("root fanout = %d, expected mid-range", rf)
	}
	leafUtil := stats[0].Util
	if leafUtil < 0.60 || leafUtil > 0.80 {
		t.Fatalf("leaf utilization %.3f outside [0.60, 0.80]", leafUtil)
	}
	for _, ls := range stats[1 : len(stats)-1] {
		if ls.Util < 0.60 || ls.Util > 0.82 {
			t.Fatalf("level %d utilization %.3f outside [0.60, 0.82]", ls.Level, ls.Util)
		}
	}
}

func TestFindChildOnLeafPanics(t *testing.T) {
	tr := New(4, MergeAtEmpty)
	defer func() {
		if recover() == nil {
			t.Fatal("FindChild on leaf did not panic")
		}
	}()
	tr.Root().FindChild(1)
}

func TestLeafGetOnInternalPanics(t *testing.T) {
	tr := New(3, MergeAtEmpty)
	for i := int64(0); i < 10; i++ {
		tr.Insert(i, 0)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("LeafGet on internal node did not panic")
		}
	}()
	tr.Root().LeafGet(1)
}

// Property: any sequence of inserts then deletes leaves a structurally
// valid tree whose contents match the surviving key set.
func TestQuickInsertDelete(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	err := quick.Check(func(seed uint64, capRaw uint8, nRaw uint16) bool {
		cap := int(capRaw%12) + 3
		n := int(nRaw%500) + 1
		src := xrand.New(seed)
		tr := New(cap, MergeAtEmpty)
		live := map[int64]bool{}
		for i := 0; i < n; i++ {
			k := src.Int63n(int64(n))
			tr.Insert(k, uint64(k))
			live[k] = true
		}
		for i := 0; i < n/2; i++ {
			k := src.Int63n(int64(n))
			tr.Delete(k)
			delete(live, k)
		}
		if tr.CheckInvariants() != nil || tr.Len() != len(live) {
			return false
		}
		for k := range live {
			if _, ok := tr.Search(k); !ok {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestPolicyString(t *testing.T) {
	if MergeAtEmpty.String() != "merge-at-empty" || MergeAtHalf.String() != "merge-at-half" {
		t.Fatal("Policy.String")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Fatal("unknown policy string")
	}
}
