package cbtree

import (
	"fmt"
	"math"
)

// CheckInvariants validates the structure of the tree. It must only be
// called when the tree is quiescent (no concurrent operations in flight).
// Empty leaves are legal: deletes leave them in place until Compact.
func (t *Tree) CheckInvariants() error {
	root := t.root.Load()
	leftmost := make(map[int]*node)
	count := 0
	if err := t.checkNode(root, math.MinInt64, 0, true, leftmost, &count); err != nil {
		return err
	}
	if count != t.Len() {
		return fmt.Errorf("cbtree: size %d but %d keys in leaves", t.Len(), count)
	}
	for level := 1; level <= root.level; level++ {
		if err := checkChain(leftmost[level], level); err != nil {
			return err
		}
	}
	return nil
}

func (t *Tree) checkNode(n *node, lo, hi int64, hiInf bool, leftmost map[int]*node, count *int) error {
	if _, seen := leftmost[n.level]; !seen {
		leftmost[n.level] = n
	}
	if n.items() > t.cap {
		return fmt.Errorf("cbtree: level %d node over capacity: %d > %d", n.level, n.items(), t.cap)
	}
	if err := t.checkLayout(n); err != nil {
		return err
	}
	right := n.right.Load()
	if hiInf {
		if right != nil {
			return fmt.Errorf("cbtree: rightmost level-%d node has a right sibling", n.level)
		}
	} else if right == nil || n.high.Load() != hi {
		return fmt.Errorf("cbtree: level %d high key %d (right %p), want %d", n.level, n.high.Load(), right, hi)
	}
	if n.isLeaf() {
		keys, _ := n.leaf()
		for _, k := range keys {
			if k < lo || (!hiInf && k >= hi) {
				return fmt.Errorf("cbtree: leaf key %d outside [%d, %d)", k, lo, hi)
			}
		}
		*count += n.items()
		return nil
	}
	for i := 1; i < len(n.keys); i++ {
		if n.keys[i-1] >= n.keys[i] {
			return fmt.Errorf("cbtree: level %d keys out of order", n.level)
		}
	}
	if len(n.children) != len(n.keys)+1 || len(n.children) == 0 {
		return fmt.Errorf("cbtree: level %d has %d children, %d routers", n.level, len(n.children), len(n.keys))
	}
	for i, c := range n.children {
		if c.level != n.level-1 {
			return fmt.Errorf("cbtree: child level %d under level %d", c.level, n.level)
		}
		clo := lo
		if i > 0 {
			clo = n.keys[i-1]
		}
		chi, chiInf := hi, hiInf
		if i < len(n.keys) {
			chi, chiInf = n.keys[i], false
		}
		if err := t.checkNode(c, clo, chi, chiInf, leftmost, count); err != nil {
			return err
		}
	}
	return nil
}

// checkLayout verifies the one node layout (see node), which OLC's
// latch-free readers rely on: the version word is even at quiescence; a
// leaf's storage is exactly cap slots with nothing to grow into, so it
// was never reallocated; its slots in use fit in it and hold
// non-decreasing keys, each run of equal keys (an item after its gaps)
// carries one value, the item count is the number of runs, and only an
// OLC leaf has gaps; an inner node's routing image is the node's own
// arrays, with no pointer left behind them for the GC to retain.
func (t *Tree) checkLayout(n *node) error {
	if v := n.mu.Version(); v&1 != 0 {
		return fmt.Errorf("cbtree: level %d node version %d odd while quiescent", n.level, v)
	}
	r := n.img.Load()
	if n.isLeaf() {
		if len(n.keys) != t.cap || cap(n.keys) != t.cap || len(n.vals) != t.cap || cap(n.vals) != t.cap {
			return fmt.Errorf("cbtree: leaf storage keys %d/%d vals %d/%d, want %d slots",
				len(n.keys), cap(n.keys), len(n.vals), cap(n.vals), t.cap)
		}
		if r != nil || n.children != nil {
			return fmt.Errorf("cbtree: leaf with routing")
		}
		return t.checkSlots(n)
	}
	if n.vals != nil || r == nil || !sameArray(r.keys, n.keys) || !sameArray(r.children, n.children) {
		return fmt.Errorf("cbtree: level %d routing image is not the node's keys and children", n.level)
	}
	for _, c := range n.children[len(n.children):cap(n.children)] {
		if c != nil {
			return fmt.Errorf("cbtree: level %d keeps a child pointer beyond its %d children", n.level, len(n.children))
		}
	}
	return nil
}

// checkSlots verifies a leaf's slots in use against its gap invariant.
func (t *Tree) checkSlots(n *node) error {
	if end := n.slots(); end > t.cap {
		return fmt.Errorf("cbtree: leaf uses %d slots of %d", end, t.cap)
	}
	keys, vals := n.leaf()
	runs := 0
	for s, k := range keys {
		switch {
		case s == 0 || keys[s-1] < k:
			runs++
		case keys[s-1] > k:
			return fmt.Errorf("cbtree: leaf keys out of order at slot %d", s)
		case t.alg != OLC:
			return fmt.Errorf("cbtree: %v leaf has a gap at slot %d", t.alg, s-1)
		case vals[s-1] != vals[s]:
			return fmt.Errorf("cbtree: leaf key %d carries values %d and %d", k, vals[s-1], vals[s])
		}
	}
	if runs != n.items() {
		return fmt.Errorf("cbtree: leaf counts %d items in %d runs of keys", n.items(), runs)
	}
	return nil
}

// sameArray reports whether a and b are the same slice of the same array.
func sameArray[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func checkChain(first *node, level int) error {
	if first == nil {
		return fmt.Errorf("cbtree: level %d missing", level)
	}
	prev := (*node)(nil)
	for n := first; n != nil; n = n.right.Load() {
		if n.level != level {
			return fmt.Errorf("cbtree: level %d chain reached level %d", level, n.level)
		}
		if prev != nil && n.right.Load() != nil && n.high.Load() <= prev.high.Load() {
			return fmt.Errorf("cbtree: level %d high keys not ascending", level)
		}
		prev = n
	}
	return nil
}
