package diskbtree

import (
	"fmt"
	"slices"

	"btreeperf/internal/blink"
	"btreeperf/internal/pagestore"
)

// CheckInvariants validates the on-disk structure against the node
// contract every tree here shares (blink.Check). The tree must be
// quiescent. It reads every node through the buffer pool (so it also
// exercises serialization round-trips for evicted pages), one latch at a
// time: each node is copied and unlatched before the walk goes on, so the
// pool never holds a pinned chain.
func (t *Tree) CheckInvariants() error {
	err := blink.Check(t.rootID(), t.cap, t.Len(), func(id pagestore.PageID) (blink.Node[pagestore.PageID], error) {
		n, err := t.rLatch(id)
		if err != nil {
			return blink.Node[pagestore.PageID]{}, err
		}
		defer t.rUnlatch(n)
		v := blink.Node[pagestore.PageID]{Level: int(n.level), Keys: slices.Clone(n.keys()), High: n.high, HasHigh: n.hasHigh, Right: n.right}
		if !n.isLeaf() {
			v.Children = make([]pagestore.PageID, n.items())
			for i := range v.Children {
				v.Children[i] = n.child(i)
			}
		}
		return v, nil
	})
	if err != nil {
		return fmt.Errorf("diskbtree: %w", err)
	}
	return nil
}
