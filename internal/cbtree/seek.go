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

// Max returns the largest key in the tree. The fast path scans the
// rightmost spine and the tail of the leaf chain; if lazily-emptied
// trailing leaves hide the maximum, a lock-coupled right-to-left descent
// finds the rightmost non-empty leaf.
func (t *Tree) Max() (k int64, v uint64, ok bool) {
	n := t.coupledDescend(math.MaxInt64, alwaysRead)
	// In LinkType mode a split may have pushed keys past the rightmost
	// routed child; chase the links to the true end of the chain, keeping
	// the last non-empty leaf's maximum.
	found := false
	for {
		if keys, vals := n.leaf(); len(keys) > 0 {
			k, v = keys[len(keys)-1], vals[len(vals)-1]
			found = true
		}
		next := n.right.Load()
		if next == nil {
			n.mu.RUnlock()
			if found {
				return k, v, true
			}
			// Trailing leaves were all empty: fall back to the DFS.
			root := t.lockRoot(alwaysRead)
			return t.maxDFS(root)
		}
		next.mu.RLock()
		n.mu.RUnlock()
		n = next
	}
}

// maxDFS explores children right-to-left under shared-lock coupling
// (ancestors stay locked while a subtree is explored — the same top-down
// order every protocol uses, so it cannot deadlock) and returns the
// largest key found. n is R-locked on entry and released before return.
func (t *Tree) maxDFS(n *node) (int64, uint64, bool) {
	defer n.mu.RUnlock()
	if n.isLeaf() {
		if keys, vals := n.leaf(); len(keys) > 0 {
			return keys[len(keys)-1], vals[len(vals)-1], true
		}
		return 0, 0, false
	}
	for i := n.items() - 1; i >= 0; i-- {
		c := n.kids()[i].Load()
		c.mu.RLock()
		if k, v, ok := t.maxDFS(c); ok {
			return k, v, true
		}
	}
	return 0, 0, false
}
