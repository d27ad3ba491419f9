package diskbtree

import (
	"math"

	"btreeperf/internal/blink"
)

// RangeLeaves is the one leaf-chain walk under every ordered read: it
// calls fn with each leaf's run of the keys in [lo, hi] and their values,
// in ascending key order, stopping when fn returns false. Runs are never
// empty. The slices are the leaf's own storage in its buffer-pool slot
// and are valid only during the call: fn runs under the leaf's shared
// latch and must not retain or modify them, nor call back into the tree.
// A storage failure met on the walk poisons the tree and is returned.
//
// It descends to the leaf covering lo, then follows right links with
// shared-latch coupling — the next leaf is latched before this one is
// released, so the walk holds at most two pins and never blocks a writer
// for longer than one leaf visit. Concurrent splits are neither missed
// nor double-visited (the Lehman–Yao right-link argument: a split only
// ever moves keys to the right, where the walk is headed).
func (t *Tree) RangeLeaves(lo, hi int64, fn func(keys []int64, vals []uint64) bool) error {
	if err := t.Poisoned(); err != nil {
		return err
	}
	if hi < lo {
		return nil
	}
	n, _, err := t.descend(1, lo, false, nil)
	if err != nil {
		return t.poison(err)
	}
	for {
		keys := n.keys()
		i, j := blink.Run(keys, lo, hi)
		if (j > i && !fn(keys[i:j], n.p[i:j])) || j < len(keys) || n.right == 0 {
			t.rUnlatch(n)
			return nil
		}
		next, err := t.rLatch(n.right)
		t.rUnlatch(n)
		if err != nil {
			return t.poison(err)
		}
		n = next
	}
}

// Range calls fn for each key in [lo, hi] ascending, stopping early if fn
// returns false.
func (t *Tree) Range(lo, hi int64, fn func(key int64, val uint64) bool) error {
	return t.RangeLeaves(lo, hi, func(keys []int64, vals []uint64) bool {
		for i, k := range keys {
			if !fn(k, vals[i]) {
				return false
			}
		}
		return true
	})
}

// SearchGE returns the smallest stored key >= key and its value
// (an ordered "seek"); ok is false when no such key exists.
func (t *Tree) SearchGE(key int64) (k int64, v uint64, ok bool, err error) {
	err = t.RangeLeaves(key, math.MaxInt64, func(keys []int64, vals []uint64) bool {
		k, v, ok = keys[0], vals[0], true
		return false
	})
	return k, v, ok, err
}

// Min returns the smallest key in the tree.
func (t *Tree) Min() (k int64, v uint64, ok bool, err error) {
	return t.SearchGE(math.MinInt64)
}
