package btree

import (
	"fmt"

	"btreeperf/internal/blink"
)

// CheckInvariants validates the full structural health of the tree and
// returns the first violation found, or nil. It checks the node contract
// every tree here shares (blink.Check: occupancy, key order, routing
// bounds, high keys, level chains, size), plus what is this tree's own:
// the root sits at level Height(), a leaf holds a value per key, a
// non-root node holds at least minItems under merge-at-half, and the
// left links mirror the right ones.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return fmt.Errorf("btree: nil root")
	}
	if t.root.level != t.height {
		return fmt.Errorf("btree: root level %d != height %d", t.root.level, t.height)
	}
	prev := make([]*Node, t.height) // per level, the node walked last
	err := blink.Check(t.root, t.cap, t.size, func(n *Node) (blink.Node[*Node], error) {
		if n.IsLeaf() && len(n.vals) != len(n.keys) {
			return blink.Node[*Node]{}, fmt.Errorf("leaf key/val length mismatch: %d vs %d", len(n.keys), len(n.vals))
		}
		if t.policy == MergeAtHalf && n != t.root && n.Items() < t.minItems() {
			return blink.Node[*Node]{}, fmt.Errorf("level %d node underfull: %d < %d", n.level, n.Items(), t.minItems())
		}
		if l := n.level - 1; l >= 0 && l < len(prev) {
			if n.left != prev[l] {
				return blink.Node[*Node]{}, fmt.Errorf("level %d broken back-link", n.level)
			}
			prev[l] = n
		}
		return blink.Node[*Node]{Level: n.level, Keys: n.keys, Children: n.children, High: n.high, HasHigh: n.hasHigh, Right: n.right}, nil
	})
	if err != nil {
		return fmt.Errorf("btree: %w", err)
	}
	return nil
}

// LevelStats describes one level of the tree.
type LevelStats struct {
	Level     int
	Nodes     int
	Items     int     // total items (keys for leaves, children for internal)
	MeanItems float64 // average occupancy = paper's E(level) fanout
	Util      float64 // occupancy / capacity
}

// StructureStats returns per-level occupancy statistics, leaves first.
// These are compared against the analytical shape model of internal/shape.
func (t *Tree) StructureStats() []LevelStats {
	counts := make([]LevelStats, t.height)
	var walk func(n *Node)
	walk = func(n *Node) {
		ls := &counts[n.level-1]
		ls.Level = n.level
		ls.Nodes++
		ls.Items += n.Items()
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	for i := range counts {
		if counts[i].Nodes > 0 {
			counts[i].MeanItems = float64(counts[i].Items) / float64(counts[i].Nodes)
			counts[i].Util = counts[i].MeanItems / float64(t.cap)
		}
	}
	return counts
}

// RootFanout returns the number of children of the root (or the number of
// keys if the root is a leaf) — the paper's E(h).
func (t *Tree) RootFanout() int { return t.root.Items() }
