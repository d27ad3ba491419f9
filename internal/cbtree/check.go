package cbtree

import (
	"fmt"
	"slices"

	"btreeperf/internal/blink"
)

// CheckInvariants validates the structure of the tree. It must only be
// called when the tree is quiescent (no concurrent operations in flight).
// Empty leaves are legal: deletes leave them in place until Compact. It
// checks the node contract every tree here shares (blink.Check), each
// node's layout first (checkLayout); an OLC leaf hands the check one key
// per item, its gaps left out.
func (t *Tree) CheckInvariants() error {
	err := blink.Check(t.root.Load(), t.cap, t.Len(), func(n *node) (blink.Node[*node], error) {
		if err := t.checkLayout(n); err != nil {
			return blink.Node[*node]{}, err
		}
		v := blink.Node[*node]{Level: n.level, Keys: n.keys, Children: n.children, High: n.high.Load(), Right: n.right.Load()}
		v.HasHigh = v.Right != nil
		if n.isLeaf() {
			keys, _ := n.leaf()
			v.Keys = slices.Compact(slices.Clone(keys))
		}
		return v, nil
	})
	if err != nil {
		return fmt.Errorf("cbtree: %w", err)
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
		return fmt.Errorf("level %d node version %d odd while quiescent", n.level, v)
	}
	r := n.img.Load()
	if n.isLeaf() {
		if len(n.keys) != t.cap || cap(n.keys) != t.cap || len(n.vals) != t.cap || cap(n.vals) != t.cap {
			return fmt.Errorf("leaf storage keys %d/%d vals %d/%d, want %d slots",
				len(n.keys), cap(n.keys), len(n.vals), cap(n.vals), t.cap)
		}
		if r != nil || n.children != nil {
			return fmt.Errorf("leaf with routing")
		}
		return t.checkSlots(n)
	}
	if n.vals != nil || r == nil || !sameArray(r.keys, n.keys) || !sameArray(r.children, n.children) {
		return fmt.Errorf("level %d routing image is not the node's keys and children", n.level)
	}
	for _, c := range n.children[len(n.children):cap(n.children)] {
		if c != nil {
			return fmt.Errorf("level %d keeps a child pointer beyond its %d children", n.level, len(n.children))
		}
	}
	return nil
}

// checkSlots verifies a leaf's slots in use against its gap invariant.
func (t *Tree) checkSlots(n *node) error {
	if end := n.slots(); end > t.cap {
		return fmt.Errorf("leaf uses %d slots of %d", end, t.cap)
	}
	keys, vals := n.leaf()
	runs := 0
	for s, k := range keys {
		switch {
		case s == 0 || keys[s-1] < k:
			runs++
		case keys[s-1] > k:
			return fmt.Errorf("leaf keys out of order at slot %d", s)
		case t.alg != OLC:
			return fmt.Errorf("%v leaf has a gap at slot %d", t.alg, s-1)
		case vals[s-1] != vals[s]:
			return fmt.Errorf("leaf key %d carries values %d and %d", k, vals[s-1], vals[s])
		}
	}
	if runs != n.items() {
		return fmt.Errorf("leaf counts %d items in %d runs of keys", n.items(), runs)
	}
	return nil
}

// sameArray reports whether a and b are the same slice of the same array.
func sameArray[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
