// Package blink is the node contract the repository's three B⁺-trees
// (btree, cbtree, diskbtree) share: the paper's Link-type node, a sorted
// run of keys with a right link and a high key (Lehman and Yao's B-link
// node). It holds what does not depend on how a tree stores or locks its
// nodes: the one structural check (Check), the one search inside a node
// (LowerBound, and Route, Find and Run over it) and the one check of a
// bulk load's input (BulkFill). Each tree hands Check a copy of its node
// as a Node; its layout, its locks and its descents stay its own
// (DESIGN.md §8 "The node").
package blink

import (
	"fmt"
	"math"
)

// Node is a copy of one node, as Check reads it.
type Node[ID comparable] struct {
	Level    int     // 1 for a leaf
	Keys     []int64 // leaf: its items' keys; inner: the routers between Children
	Children []ID    // inner: one more than Keys
	High     int64   // exclusive upper bound of the node's keys, if HasHigh
	HasHigh  bool    // false on the rightmost node of a level (+infinity)
	Right    ID      // right sibling; the zero ID on the rightmost node
}

// items is the paper's occupancy: keys in a leaf, children in an inner
// node.
func (n *Node[ID]) items() int {
	if n.Level == 1 {
		return len(n.Keys)
	}
	return len(n.Children)
}

// Check validates a quiescent tree of capacity cap, rooted at root and
// holding size keys, and returns the first broken invariant, named at
// the head of its message:
//
//   - capacity: no node holds more than cap items;
//   - key order: a node's keys strictly ascend;
//   - shape: an inner node has one child more than routers, and a child
//     sits one level below its parent;
//   - routed range: every key of a leaf and every router of an inner
//     node lies in the range [lo, hi) its parent routes to it;
//   - high key: a node's high key is its routed hi, and the rightmost
//     node of a level (hi = +∞) has none;
//   - level chain: each level's right links lead from its leftmost node
//     through every node the parents route to, to a last node without a
//     high key, in ascending high-key order;
//   - size: the leaves hold size keys.
//
// read returns a copy of node id. Check calls it once per node, a parent
// before its children and each level left to right, so a tree checks
// there what belongs to it alone and returns the error.
func Check[ID comparable](root ID, cap, size int, read func(ID) (Node[ID], error)) error {
	w := walker[ID]{cap: cap, read: read, nodes: map[ID]link[ID]{}}
	if err := w.walk(root, 0, math.MinInt64, 0, true); err != nil {
		return err
	}
	for level := 1; level <= len(w.first); level++ {
		if err := w.chain(level); err != nil {
			return err
		}
	}
	if w.keys != size {
		return fmt.Errorf("size: %d, but the leaves hold %d keys", size, w.keys)
	}
	return nil
}

// walker is one Check's state.
type walker[ID comparable] struct {
	cap    int
	read   func(ID) (Node[ID], error)
	nodes  map[ID]link[ID] // every node walked, for the level chains
	first  []ID            // per level (index level-1): its leftmost node
	routed []int           // per level: the nodes the parents route to
	keys   int             // keys in the leaves walked
}

// link is what the level chains need of a node.
type link[ID comparable] struct {
	level   int
	high    int64
	hasHigh bool
	right   ID
}

// walk checks node id, routed [lo, hi) (hi = +∞ when hiInf) from a
// parent at level+1, or the root when level is 0, and the subtree below.
func (w *walker[ID]) walk(id ID, level int, lo, hi int64, hiInf bool) error {
	n, err := w.read(id)
	if err != nil {
		return err
	}
	switch {
	case level == 0 && n.Level < 1:
		return fmt.Errorf("shape: root at level %d", n.Level)
	case level == 0:
		w.first, w.routed = make([]ID, n.Level), make([]int, n.Level)
	case n.Level != level:
		return fmt.Errorf("shape: a level-%d node under a level-%d node", n.Level, level+1)
	}
	at := w.routed[n.Level-1]
	if at == 0 {
		w.first[n.Level-1] = id
	}
	w.routed[n.Level-1]++
	w.nodes[id] = link[ID]{level: n.Level, high: n.High, hasHigh: n.HasHigh, right: n.Right}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%s (level %d, node %d from the left)", fmt.Sprintf(format, args...), n.Level, at)
	}

	if n.items() > w.cap {
		return fail("capacity: %d items > %d", n.items(), w.cap)
	}
	for i := 1; i < len(n.Keys); i++ {
		if n.Keys[i-1] >= n.Keys[i] {
			return fail("key order: %d before %d", n.Keys[i-1], n.Keys[i])
		}
	}
	leaf := n.Level == 1
	if !leaf && (len(n.Children) == 0 || len(n.Children) != len(n.Keys)+1) {
		return fail("shape: %d children for %d routers", len(n.Children), len(n.Keys))
	}
	if k := len(n.Keys); k > 0 && (n.Keys[0] < lo || !hiInf && n.Keys[k-1] >= hi) {
		what := "leaf keys"
		if !leaf {
			what = "routers"
		}
		return fail("routed range: %s [%d, %d] outside [%d, %s)", what, n.Keys[0], n.Keys[k-1], lo, bound(hi, hiInf))
	}
	if n.HasHigh == hiInf || !hiInf && n.High != hi {
		return fail("high key: %s, routed bound %s", bound(n.High, !n.HasHigh), bound(hi, hiInf))
	}

	if leaf {
		w.keys += len(n.Keys)
		return nil
	}
	for i, c := range n.Children {
		clo, chi, chiInf := lo, hi, hiInf
		if i > 0 {
			clo = n.Keys[i-1]
		}
		if i < len(n.Keys) {
			chi, chiInf = n.Keys[i], false
		}
		if err := w.walk(c, n.Level-1, clo, chi, chiInf); err != nil {
			return err
		}
	}
	return nil
}

// chain follows one level's right links from its leftmost node.
func (w *walker[ID]) chain(level int) error {
	var none ID
	prev, linked := link[ID]{}, 0
	for id := w.first[level-1]; id != none; id = prev.right {
		n, ok := w.nodes[id]
		switch {
		case !ok:
			return fmt.Errorf("level chain: level %d links to a node no parent routes to", level)
		case n.level != level:
			return fmt.Errorf("level chain: level %d links to a level-%d node", level, n.level)
		case linked > 0 && !prev.hasHigh:
			return fmt.Errorf("level chain: level %d node %d from the left has a right sibling but no high key", level, linked-1)
		case linked > 0 && n.hasHigh && n.high <= prev.high:
			return fmt.Errorf("level chain: level %d high keys not ascending: %d after %d", level, n.high, prev.high)
		}
		prev = n
		linked++
	}
	if prev.hasHigh {
		return fmt.Errorf("level chain: the last node of level %d has high key %d", level, prev.high)
	}
	if linked != w.routed[level-1] {
		return fmt.Errorf("level chain: level %d links %d nodes, its parents route to %d", level, linked, w.routed[level-1])
	}
	return nil
}

// bound formats an exclusive upper bound.
func bound(hi int64, inf bool) string {
	if inf {
		return "+inf"
	}
	return fmt.Sprint(hi)
}

// ScanRun is the most keys a node search scans forward. LowerBound
// halves its range by probes while more than ScanRun keys remain, then
// scans the rest, so a node of the serving capacity (64) is scanned whole
// and its key lines stream in order, where a binary search's probes of a
// cold node would miss the cache one after another. A fat node (a root
// of capacity 65,536) still costs a logarithm.
const ScanRun = 64

// LowerBound returns the first slot of ascending keys whose key is
// ≥ key: where key is, or would go. Keys may repeat (a gapped OLC leaf
// holds copies); it returns the first of a run.
func LowerBound(keys []int64, key int64) int {
	lo, hi := 0, len(keys)
	for hi-lo > ScanRun {
		mid := (lo + hi) >> 1
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i, k := range keys[lo:hi] {
		if k >= key {
			return lo + i
		}
	}
	return hi
}

// Route returns the child slot that routes key among an inner node's
// routers: the number of routers ≤ key.
func Route(keys []int64, key int64) int {
	if key == math.MaxInt64 {
		return len(keys)
	}
	return LowerBound(keys, key+1)
}

// Find returns the slot of key in a leaf's ascending keys (the first,
// if it repeats), or the slot it would go before, and whether it is
// present.
func Find(keys []int64, key int64) (int, bool) {
	i := LowerBound(keys, key)
	return i, i < len(keys) && keys[i] == key
}

// Run returns the slots [i, j) of a leaf's ascending keys that lie in
// [lo, hi], lo ≤ hi: the run a scan bounded by [lo, hi] takes from the
// leaf. A leaf whose last key is ≤ hi — every leaf of a scan but its
// last — ends its run with one compare.
func Run(keys []int64, lo, hi int64) (i, j int) {
	i, j = LowerBound(keys, lo), len(keys)
	if j > 0 && keys[j-1] > hi {
		j = i + LowerBound(keys[i:], hi+1) // hi < keys[j-1], so hi+1 cannot overflow
	}
	return i, j
}

// BulkFill checks a bulk load's input — keys strictly increasing and
// parallel to vals, fill in (0, 1] — and returns how many items each
// node of the build takes: fill·cap, but at least 2, so that every level
// has fewer nodes than the one below it.
func BulkFill(cap int, keys []int64, vals []uint64, fill float64) (int, error) {
	if len(keys) != len(vals) {
		return 0, fmt.Errorf("%d keys but %d values", len(keys), len(vals))
	}
	if fill <= 0 || fill > 1 {
		return 0, fmt.Errorf("fill factor %v outside (0, 1]", fill)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return 0, fmt.Errorf("keys not strictly increasing at index %d", i)
		}
	}
	return max(int(fill*float64(cap)), 2), nil
}
