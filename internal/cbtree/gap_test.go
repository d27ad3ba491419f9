package cbtree

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// TestOLCGapChurn drives one OLC tree per capacity through inserts,
// updates and deletes against a map, checks every result, and runs
// CheckInvariants — which holds every leaf to the gap layout — after
// every operation. The key range is a dozen leaves wide, so leaves split
// (spreading their halves over gaps), drain (turning items into gaps or
// giving back the tail) and fill again (an insert takes a gap on either
// side, or the tail), and most updates meet a key that has gaps in front
// of it.
func TestOLCGapChurn(t *testing.T) {
	for _, cap := range []int{3, 4, 5, 16, 64} {
		t.Run(fmt.Sprint("cap", cap), func(t *testing.T) {
			tr := New(cap, OLC)
			oracle := map[int64]uint64{}
			src := rand.New(rand.NewPCG(uint64(cap), 1))
			span := int64(cap * 12)
			ops := 20000
			if testing.Short() {
				ops = 4000
			}
			for i := 0; i < ops; i++ {
				k := src.Int64N(span)
				want, had := oracle[k]
				switch op := src.IntN(10); {
				case op < 5:
					v := src.Uint64()
					if fresh := tr.Insert(k, v); fresh == had {
						t.Fatalf("op %d: Insert(%d) = %v, key present %v", i, k, fresh, had)
					}
					oracle[k], want, had = v, v, true
				case op < 8:
					if ok := tr.Delete(k); ok != had {
						t.Fatalf("op %d: Delete(%d) = %v, key present %v", i, k, ok, had)
					}
					delete(oracle, k)
					want, had = 0, false
				}
				if v, ok := tr.Search(k); ok != had || v != want {
					t.Fatalf("op %d: Search(%d) = %d,%v, want %d,%v", i, k, v, ok, want, had)
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("op %d on key %d: %v", i, k, err)
				}
			}
			var got []int64
			tr.Range(0, span, func(k int64, v uint64) bool {
				if oracle[k] != v {
					t.Fatalf("scan: %d=%d, oracle %d", k, v, oracle[k])
				}
				got = append(got, k)
				return true
			})
			if len(got) != len(oracle) || !slices.IsSorted(got) {
				t.Fatalf("scan found %d keys (sorted %v), oracle holds %d", len(got), slices.IsSorted(got), len(oracle))
			}
		})
	}
}

// TestGapInsertWritesOneSlot pins what the layout buys: in a leaf whose
// every item has one gap in front of it, an insert anywhere — before the
// first item, between two, after the last — writes the one gap next to
// it and moves nothing, and a delete writes only the item's own slots.
func TestGapInsertWritesOneSlot(t *testing.T) {
	const cap = 16
	build := func() (*Tree, *node) {
		keys, vals := []int64{}, []uint64{}
		for k := int64(10); k <= 80; k += 10 {
			keys, vals = append(keys, k), append(vals, uint64(k))
		}
		tr, err := BulkLoad(cap, OLC, keys, vals, 1)
		if err != nil {
			t.Fatal(err)
		}
		n := tr.root.Load()
		if k, _ := n.leaf(); len(k) != cap || n.items() != 8 {
			t.Fatalf("setup: %d items in %d slots, want 8 in %d", n.items(), len(k), cap)
		}
		return tr, n
	}
	changed := func(before []int64, n *node) int {
		c := 0
		for s, k := range n.keys() {
			if k != before[s] {
				c++
			}
		}
		return c
	}
	for k := int64(5); k <= 85; k += 10 {
		tr, n := build()
		before := slices.Clone(n.keys())
		tr.Insert(k, 1)
		if c := changed(before, n); c != 1 {
			t.Errorf("Insert(%d) wrote %d slots, want 1: %v -> %v", k, c, before, n.keys())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	for k := int64(10); k < 80; k += 10 {
		tr, n := build()
		before := slices.Clone(n.keys())
		tr.Delete(k)
		if c := changed(before, n); c != 2 {
			t.Errorf("Delete(%d) wrote %d slots, want its 2: %v -> %v", k, c, before, n.keys())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("Delete(%d): %v", k, err)
		}
	}
}

// TestCheckInvariantsHoldsTheGapLayout seeds one fault at a time into a
// quiescent leaf and requires CheckInvariants to name it: a gap in a
// Link-type leaf (the same slots pass under OLC, whose leaves may keep
// gaps), a run of one key carrying two values, an item count that is not
// the number of runs, keys out of order, and more slots in use than the
// leaf has.
func TestCheckInvariantsHoldsTheGapLayout(t *testing.T) {
	// leafOf returns a one-leaf tree of alg holding keys 10, 20, 30, 40.
	leafOf := func(alg Algorithm) (*Tree, *node) {
		tr := New(8, alg)
		for k := int64(10); k <= 40; k += 10 {
			tr.Insert(k, uint64(k))
		}
		return tr, tr.root.Load()
	}
	// gap turns slot 0 into a copy of slot 1: key 10 becomes a gap.
	gap := func(tr *Tree, n *node) {
		n.keys()[0], n.vals()[0] = n.keys()[1], n.vals()[1]
		n.setFill(4, 3)
		tr.size.Add(-1)
	}
	for _, c := range []struct {
		name, want string
		alg        Algorithm
		seed       func(*Tree, *node)
	}{
		{"gap in a link-type leaf", "link-type leaf has a gap", LinkType, gap},
		{"gap in a lock-coupling leaf", "lock-coupling leaf has a gap", LockCoupling, gap},
		{"run with two values", "carries values", OLC, func(tr *Tree, n *node) {
			gap(tr, n)
			n.vals()[0]++
		}},
		{"count is not the runs", "items in 3 runs", OLC, func(tr *Tree, n *node) {
			gap(tr, n)
			n.setFill(4, 4)
			tr.size.Add(1)
		}},
		{"keys out of order", "out of order", OLC, func(_ *Tree, n *node) { n.keys()[1], n.keys()[2] = n.keys()[2], n.keys()[1] }},
		{"slots beyond storage", "slots of 8", OLC, func(_ *Tree, n *node) { n.setFill(9, 4) }},
	} {
		tr, n := leafOf(c.alg)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: before seeding: %v", c.name, err)
		}
		c.seed(tr, n)
		if err := tr.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error naming %q", c.name, err, c.want)
		}
	}
	tr, n := leafOf(OLC)
	gap(tr, n)
	if err := tr.CheckInvariants(); err != nil {
		t.Errorf("a gap in an OLC leaf: %v", err)
	}
	if v, ok := tr.Search(20); !ok || v != 20 {
		t.Errorf("Search(20) through its gap = %d,%v", v, ok)
	}
	if _, ok := tr.Search(10); ok {
		t.Error("the key a gap replaced is still found")
	}
}
