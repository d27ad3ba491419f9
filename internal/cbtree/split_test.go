package cbtree

import (
	"fmt"
	"slices"
	"testing"
)

// leafItems returns the items of a quiescent leaf, its gaps skipped: of
// each run of equal keys, the last slot.
func leafItems(n *node) (keys []int64, vals []uint64) {
	k, v := n.leaf()
	for s := range k {
		if s+1 == len(k) || k[s] != k[s+1] {
			keys, vals = append(keys, k[s]), append(vals, v[s])
		}
	}
	return keys, vals
}

// TestSplitAroundNewItem is the table test of splitLeaf: a full leaf of
// every capacity class (odd, even, the smallest, the serving default)
// takes a new item at every slot 0..cap, with plain and with atomic
// stores. The halves must be the ones an insert into cap+1 slots followed
// by a halving would make — the left keeps ⌈(cap+1)/2⌉ items, the new
// sibling the rest — both sorted (compared item by item, gaps skipped),
// the separator the sibling's first key, and the chain relinked.
func TestSplitAroundNewItem(t *testing.T) {
	for _, cap := range []int{3, 4, 5, 64} {
		t.Run(fmt.Sprint("cap", cap), func(t *testing.T) {
			for _, alg := range []Algorithm{LinkType, OLC} {
				for slot := 0; slot <= cap; slot++ {
					fail := func(format string, args ...any) {
						t.Helper()
						t.Errorf("%v, new item at slot %d: "+format, append([]any{alg, slot}, args...)...)
					}
					tr := New(cap, alg)
					n, old := tr.root.Load(), tr.newNode(1)
					var keys []int64
					var vals []uint64
					for i := 0; i < cap; i++ {
						k := int64(i+1) * 10
						tr.Insert(k, uint64(k)+1)
						keys, vals = append(keys, k), append(vals, uint64(k)+1)
					}
					n.right.Store(old) // a right neighbour for the sibling to inherit
					n.high.Store(1000)

					key := int64(slot)*10 + 5
					if fresh, full := tr.leafPut(n, key, 7); !fresh || !full {
						fail("leafPut into a full leaf: fresh %v, full %v", fresh, full)
						continue
					}
					sib, sep := tr.splitLeaf(n, key, 7)

					keys, vals = slices.Insert(keys, slot, key), slices.Insert(vals, slot, 7)
					m := (cap + 2) / 2
					lk, lv := leafItems(n)
					rk, rv := leafItems(sib)
					if !slices.Equal(lk, keys[:m]) || !slices.Equal(lv, vals[:m]) {
						fail("left half %v=%v, want %v=%v", lk, lv, keys[:m], vals[:m])
					}
					if !slices.Equal(rk, keys[m:]) || !slices.Equal(rv, vals[m:]) {
						fail("sibling %v=%v, want %v=%v", rk, rv, keys[m:], vals[m:])
					}
					if sep != keys[m] || n.high.Load() != sep || n.right.Load() != sib {
						fail("separator %d, left high %d right %p; want %d and the sibling %p", sep, n.high.Load(), n.right.Load(), keys[m], sib)
					}
					if sib.high.Load() != 1000 || sib.right.Load() != old {
						fail("sibling did not inherit the high key and right link")
					}
					for _, leaf := range []*node{n, sib} {
						if err := tr.checkLayout(leaf); err != nil {
							fail("%v", err)
						}
					}
					if tr.Stats().Splits != 1 || tr.Len() != cap+1 {
						fail("%d splits, Len %d", tr.Stats().Splits, tr.Len())
					}
				}
			}
		})
	}
}
