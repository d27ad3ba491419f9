package diskbtree

import (
	"fmt"
	"math"

	"btreeperf/internal/pagestore"
)

// CheckInvariants validates the on-disk structure. The tree must be
// quiescent. It walks every node through the buffer pool (so it also
// exercises serialization round-trips for evicted pages) and verifies key
// order, routing bounds, high keys, level link chains and the persisted
// key count.
func (t *Tree) CheckInvariants() error {
	rootID := t.rootID()
	leftmost := map[int]pagestore.PageID{}
	count := 0
	height, err := t.checkNode(rootID, math.MinInt64, 0, true, leftmost, &count)
	if err != nil {
		return err
	}
	if count != t.Len() {
		return fmt.Errorf("diskbtree: size %d but %d keys on leaves", t.Len(), count)
	}
	for level := 1; level <= height; level++ {
		if err := t.checkChain(leftmost[level], level); err != nil {
			return err
		}
	}
	return nil
}

func (t *Tree) checkNode(id pagestore.PageID, lo, hi int64, hiInf bool, leftmost map[int]pagestore.PageID, count *int) (int, error) {
	n, err := t.rLatch(id)
	if err != nil {
		return 0, err
	}
	level := int(n.level)
	keys := n.keys()
	if _, seen := leftmost[level]; !seen {
		leftmost[level] = id
	}
	fail := func(format string, args ...interface{}) (int, error) {
		t.rUnlatch(n)
		return 0, fmt.Errorf("diskbtree: page %d: %s", id, fmt.Sprintf(format, args...))
	}
	if n.items() > t.cap {
		return fail("over capacity: %d > %d", n.items(), t.cap)
	}
	if hiInf {
		if n.hasHigh {
			return fail("rightmost node has finite high key")
		}
	} else if !n.hasHigh || n.high != hi {
		return fail("high key %v/%v, want %d", n.high, n.hasHigh, hi)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return fail("keys out of order")
		}
	}
	if n.isLeaf() {
		for _, k := range keys {
			if k < lo || (!hiInf && k >= hi) {
				return fail("leaf key %d outside [%d, %d)", k, lo, hi)
			}
		}
		*count += len(keys)
		t.rUnlatch(n)
		return level, nil
	}
	if n.items() == 0 {
		return fail("internal node without children")
	}
	// Copy child descriptors, then release the latch before recursing so
	// the pool never holds a long pinned chain.
	type childSpec struct {
		id       pagestore.PageID
		lo, hi   int64
		hiInf    bool
		expected int
	}
	specs := make([]childSpec, n.items())
	for i := range specs {
		clo := lo
		if i > 0 {
			clo = keys[i-1]
		}
		chi, chiInf := hi, hiInf
		if i < len(keys) {
			chi, chiInf = keys[i], false
		}
		specs[i] = childSpec{id: n.child(i), lo: clo, hi: chi, hiInf: chiInf, expected: level - 1}
	}
	t.rUnlatch(n)
	for _, sp := range specs {
		childLevel, err := t.checkNode(sp.id, sp.lo, sp.hi, sp.hiInf, leftmost, count)
		if err != nil {
			return 0, err
		}
		if childLevel != sp.expected {
			return 0, fmt.Errorf("diskbtree: page %d: child level %d under level %d", sp.id, childLevel, level)
		}
	}
	return level, nil
}

func (t *Tree) checkChain(first pagestore.PageID, level int) error {
	if first == 0 {
		return fmt.Errorf("diskbtree: level %d missing", level)
	}
	var prevHigh int64
	prevHasHigh := false
	started := false
	for id := first; id != 0; {
		n, err := t.rLatch(id)
		if err != nil {
			return err
		}
		if int(n.level) != level {
			t.rUnlatch(n)
			return fmt.Errorf("diskbtree: level %d chain reached level %d", level, n.level)
		}
		if started {
			if !prevHasHigh {
				t.rUnlatch(n)
				return fmt.Errorf("diskbtree: interior level-%d node with infinite high key", level)
			}
			if n.hasHigh && n.high <= prevHigh {
				t.rUnlatch(n)
				return fmt.Errorf("diskbtree: level %d high keys not ascending", level)
			}
		}
		if n.right == 0 && n.hasHigh {
			t.rUnlatch(n)
			return fmt.Errorf("diskbtree: rightmost level-%d node has finite high key", level)
		}
		prevHigh, prevHasHigh = n.high, n.hasHigh
		started = true
		next := n.right
		t.rUnlatch(n)
		id = next
	}
	return nil
}
