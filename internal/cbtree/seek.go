package cbtree

import "math"

// SearchGE returns the smallest stored key >= key and its value
// (an ordered "seek"). ok is false when no such key exists. It is the
// head of the range scan from key: the leaf walk skips the lazily
// emptied leaves that may lie before a qualifying key.
func (t *Tree) SearchGE(key int64) (k int64, v uint64, ok bool) {
	t.RangeLeaves(key, math.MaxInt64, func(keys []int64, vals []uint64) bool {
		k, v, ok = keys[0], vals[0], true
		return false
	})
	return k, v, ok
}

// Min returns the smallest key in the tree.
func (t *Tree) Min() (k int64, v uint64, ok bool) {
	return t.SearchGE(math.MinInt64)
}

// Max returns the largest key in the tree: the last item of the last
// leaf, found by the descent a search makes; if deletes have emptied that
// leaf, the last item a scan of the whole tree hands out. (A descent that
// held a parent while it waited for a leaf would close a cycle with a
// right-link lend, which holds leaves while it waits for their parent.)
func (t *Tree) Max() (k int64, v uint64, ok bool) {
	n := t.rlockLeaf(math.MaxInt64)
	if keys, vals := n.leaf(); len(keys) > 0 {
		k, v, ok = keys[len(keys)-1], vals[len(vals)-1], true
	}
	n.mu.RUnlock()
	if !ok {
		t.RangeLeaves(math.MinInt64, math.MaxInt64, func(keys []int64, vals []uint64) bool {
			k, v, ok = keys[len(keys)-1], vals[len(vals)-1], true
			return true
		})
	}
	return k, v, ok
}
