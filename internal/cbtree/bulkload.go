package cbtree

import (
	"fmt"

	"btreeperf/internal/blink"
)

// BulkLoad builds a tree from sorted data bottom-up, far faster than
// repeated Insert and with a controlled fill factor. keys must be strictly
// increasing and parallel to vals; fill in (0, 1] sets the target node
// occupancy (the classical default 0.9 leaves headroom for later inserts;
// use 1.0 for read-only trees). The returned tree is immediately safe for
// concurrent use.
func BulkLoad(cap int, alg Algorithm, keys []int64, vals []uint64, fill float64) (*Tree, error) {
	per, err := blink.BulkFill(cap, keys, vals, fill)
	if err != nil {
		return nil, fmt.Errorf("cbtree: %w", err)
	}
	t := New(cap, alg)
	if len(keys) == 0 {
		return t, nil
	}

	// Build the leaf level.
	var level []built
	for off := 0; off < len(keys); off += per {
		end := min(off+per, len(keys))
		n := t.newNode(1)
		n.lay(keys[off:end], vals[off:end], -1, 0, 0, alg == OLC)
		level = append(level, built{n: n, min: keys[off]})
	}
	linkLevel(level)

	// Stack internal levels until one node remains.
	for h := 2; len(level) > 1; h++ {
		var parents []built
		for j, c := range level {
			if j%per == 0 {
				parents = append(parents, built{n: t.newNode(h), min: c.min})
			}
			p := parents[len(parents)-1].n
			p.putEntry(p.items(), c.min, c.n)
		}
		linkLevel(parents)
		level = parents
	}

	t.root.Store(level[0].n)
	t.size.Store(int64(len(keys)))
	return t, nil
}

// built pairs a constructed node with the smallest key of its subtree.
type built struct {
	n   *node
	min int64
}

// linkLevel chains one built level left to right, setting right pointers
// and high keys (the next node's minimum).
func linkLevel(level []built) {
	for i := 0; i < len(level)-1; i++ {
		level[i].n.right.Store(level[i+1].n)
		level[i].n.high.Store(level[i+1].min)
	}
}
