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
		v := blink.Node[*node]{Level: int(n.level), High: n.high.Load(), Right: n.right.Load()}
		v.HasHigh = v.Right != nil
		keys := n.keys()[:n.slots()]
		if n.isLeaf() {
			v.Keys = slices.Compact(slices.Clone(keys))
		} else if len(keys) > 0 {
			v.Keys = keys[1:]
			for i := range keys {
				v.Children = append(v.Children, n.kids()[i].Load())
			}
		}
		return v, nil
	})
	if err != nil {
		return fmt.Errorf("cbtree: %w", err)
	}
	return nil
}

// checkLayout verifies the one node layout (see node): the version is
// even at quiescence, the arrays are cap slots and the slots in use fit;
// a leaf's gaps (checkSlots); an inner node's keys ascend strictly over
// its children, and no child slot past them holds a pointer the GC would
// keep alive.
func (t *Tree) checkLayout(n *node) error {
	if v := n.mu.Version(); v&1 != 0 {
		return fmt.Errorf("level %d node version %d odd while quiescent", n.level, v)
	}
	if end := n.slots(); int(n.cap) != t.cap || end > t.cap {
		return fmt.Errorf("level %d node uses %d slots of %d, want %d", n.level, end, n.cap, t.cap)
	}
	if n.isLeaf() {
		return t.checkSlots(n)
	}
	c := n.slots()
	for s, keys := 1, n.keys(); s < c; s++ {
		if keys[s-1] >= keys[s] {
			return fmt.Errorf("level %d node keys not strictly ascending at slot %d", n.level, s)
		}
	}
	for s, kids := c, n.kids(); s < t.cap; s++ {
		if kids[s].Load() != nil {
			return fmt.Errorf("level %d node keeps a child pointer in slot %d, past its %d children", n.level, s, c)
		}
	}
	return nil
}

// checkSlots verifies a leaf's slots in use against its gap invariant.
func (t *Tree) checkSlots(n *node) error {
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
