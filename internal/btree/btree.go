// Package btree implements the B⁺-tree substrate of the reproduction: an
// order-N tree (capacity counted in items per node, matching the paper's
// "maximum of 13 items") storing all keys in the leaves.
//
// The package provides both a conventional sequential API (Insert, Delete,
// Search) used by the simulator's tree-construction phase, and the
// fine-grained node-level operations (FindChild, Covers, Split,
// AddChild, ...) that the concurrent algorithms in internal/sim drive while
// holding per-node locks.
//
// Every node carries a right-sibling link and a high key, so the same node
// layout serves the Link-type (Lehman–Yao) algorithm. Left links are also
// maintained purely as an implementation convenience for merge-at-empty
// node removal; the Link-type search algorithm itself never follows them.
//
// Two restructuring policies are supported:
//
//   - MergeAtEmpty (the paper's choice, from Johnson & Shasha [9,10]):
//     a node is removed only when its last item is deleted.
//   - MergeAtHalf (Wedekind's classical policy): a node is rebalanced when
//     it falls below half occupancy.
package btree

import (
	"fmt"

	"btreeperf/internal/blink"
)

// Policy selects the restructuring strategy applied on deletes.
type Policy int

const (
	// MergeAtEmpty removes a node only when it becomes completely empty.
	MergeAtEmpty Policy = iota
	// MergeAtHalf rebalances (borrow or merge) when a node drops below
	// ceil(cap/2) items.
	MergeAtHalf
)

func (p Policy) String() string {
	switch p {
	case MergeAtEmpty:
		return "merge-at-empty"
	case MergeAtHalf:
		return "merge-at-half"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Stats counts restructuring events since the tree was created.
type Stats struct {
	Splits  int64 // node splits (all levels)
	Removes int64 // node removals due to emptiness (merge-at-empty)
	Merges  int64 // node merges (merge-at-half)
	Borrows int64 // item redistributions (merge-at-half)
}

// Tree is a B⁺-tree. The zero value is not usable; call New.
// Tree is not safe for concurrent use; the concurrent algorithms in
// internal/sim and internal/cbtree layer locking on top.
type Tree struct {
	cap    int
	policy Policy
	root   *Node
	height int
	size   int
	stats  Stats
}

// Node is a B⁺-tree node. Level 1 nodes are leaves holding key/value pairs;
// higher nodes hold child pointers separated by router keys.
type Node struct {
	level    int
	keys     []int64 // leaf: item keys; internal: routers (len = len(children)-1)
	vals     []uint64
	children []*Node
	right    *Node
	left     *Node
	high     int64 // exclusive upper bound of this node's key range
	hasHigh  bool  // false means +infinity (rightmost node of its level)
}

// New creates an empty tree whose nodes hold at most cap items
// (cap >= 3 so splits always leave both halves non-empty).
func New(cap int, policy Policy) *Tree {
	if cap < 3 {
		panic(fmt.Sprintf("btree: capacity %d too small (need >= 3)", cap))
	}
	return &Tree{
		cap:    cap,
		policy: policy,
		root:   &Node{level: 1},
		height: 1,
	}
}

// Len returns the number of keys stored in the tree.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels; leaves are level 1, the root is
// level Height().
func (t *Tree) Height() int { return t.height }

// Root returns the current root node.
func (t *Tree) Root() *Node { return t.root }

// Stats returns the restructuring counters.
func (t *Tree) Stats() Stats { return t.stats }

// ---------------------------------------------------------------------------
// Node accessors used by the concurrent algorithms.

// Level returns the node's level (1 = leaf).
func (n *Node) Level() int { return n.level }

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.level == 1 }

// Items returns the occupancy in the paper's sense: number of keys for a
// leaf, number of children (the fanout) for an internal node.
func (n *Node) Items() int {
	if n.IsLeaf() {
		return len(n.keys)
	}
	return len(n.children)
}

// Right returns the right sibling, or nil for the rightmost node.
func (n *Node) Right() *Node { return n.right }

// HighKey returns the exclusive upper bound of the node's key range.
// ok is false for the rightmost node of a level (bound +infinity).
func (n *Node) HighKey() (high int64, ok bool) { return n.high, n.hasHigh }

// Covers reports whether key falls below the node's high key, i.e. whether
// a Link-type search may stop descending through right links here.
func (n *Node) Covers(key int64) bool { return !n.hasHigh || key < n.high }

// FindChild returns the child responsible for key. It panics on a leaf.
func (n *Node) FindChild(key int64) *Node {
	if n.IsLeaf() {
		panic("btree: FindChild on leaf")
	}
	return n.children[n.childIndex(key)]
}

// childIndex returns the index of the child responsible for key:
// the first i with key < keys[i], else the last child.
func (n *Node) childIndex(key int64) int { return blink.Route(n.keys, key) }

// LeafGet looks key up in a leaf.
func (n *Node) LeafGet(key int64) (uint64, bool) {
	if !n.IsLeaf() {
		panic("btree: LeafGet on internal node")
	}
	i, ok := blink.Find(n.keys, key)
	if !ok {
		return 0, false
	}
	return n.vals[i], true
}

// ---------------------------------------------------------------------------
// Safety tests (the paper's op-safe predicates).

// InsertSafe reports whether inserting into n cannot split it.
func (t *Tree) InsertSafe(n *Node) bool { return n.Items() < t.cap }

// DeleteSafe reports whether deleting from n cannot restructure it.
// Under merge-at-empty a node is unsafe only when it holds a single item
// (the next delete empties it); the root is always safe. Under
// merge-at-half a node is unsafe at or below the underflow threshold.
func (t *Tree) DeleteSafe(n *Node) bool {
	if n == t.root {
		return true
	}
	switch t.policy {
	case MergeAtEmpty:
		return n.Items() > 1
	case MergeAtHalf:
		return n.Items() > t.minItems()
	default:
		panic("btree: unknown policy")
	}
}

// minItems is the merge-at-half underflow threshold.
func (t *Tree) minItems() int { return (t.cap + 1) / 2 }

// ---------------------------------------------------------------------------
// Sequential API.

// Search returns the value stored under key.
func (t *Tree) Search(key int64) (uint64, bool) {
	n := t.root
	for !n.IsLeaf() {
		n = n.FindChild(key)
	}
	return n.LeafGet(key)
}

// Insert stores key→val. If key is already present its value is replaced
// and Insert reports false; a fresh insertion reports true.
func (t *Tree) Insert(key int64, val uint64) bool {
	// Descend remembering the path for split propagation.
	path := make([]*Node, 0, t.height)
	n := t.root
	for !n.IsLeaf() {
		path = append(path, n)
		n = n.FindChild(key)
	}
	i, ok := blink.Find(n.keys, key)
	if ok {
		n.vals[i] = val
		return false
	}
	n.keys = insertAt(n.keys, i, key)
	n.vals = insertAt(n.vals, i, val)
	t.size++

	// Split upward while over capacity.
	for child := n; len(child.keys) > t.cap || len(child.children) > t.cap; {
		sib, sep := t.Split(child)
		if len(path) == 0 {
			t.GrowRoot(child, sep, sib)
			break
		}
		parent := path[len(path)-1]
		path = path[:len(path)-1]
		parent.AddChild(sep, sib)
		child = parent
	}
	return true
}

// Delete removes key, reporting whether it was present.
func (t *Tree) Delete(key int64) bool {
	path := make([]*Node, 0, t.height)
	n := t.root
	for !n.IsLeaf() {
		path = append(path, n)
		n = n.FindChild(key)
	}
	i, ok := blink.Find(n.keys, key)
	if !ok {
		return false
	}
	n.keys = removeAt(n.keys, i)
	n.vals = removeAt(n.vals, i)
	t.size--

	switch t.policy {
	case MergeAtEmpty:
		t.collapseEmpty(n, path)
	case MergeAtHalf:
		t.rebalance(n, path)
	}
	return true
}

// Range calls fn for each key in [lo, hi] in ascending order, following
// leaf links; it stops early if fn returns false.
func (t *Tree) Range(lo, hi int64, fn func(key int64, val uint64) bool) {
	n := t.root
	for !n.IsLeaf() {
		n = n.FindChild(lo)
	}
	for n != nil {
		for i, k := range n.keys {
			if k < lo {
				continue
			}
			if k > hi {
				return
			}
			if !fn(k, n.vals[i]) {
				return
			}
		}
		n = n.right
	}
}

// ---------------------------------------------------------------------------
// Structural mutations shared with the concurrent algorithms.

// Split divides an over-full (or at least 2-item) node, moving the upper
// half of its items to a new right sibling. It returns the sibling and the
// separator key to install in the parent. Right/left links and high keys
// are maintained (a half-split in Lehman–Yao terms).
func (t *Tree) Split(n *Node) (sib *Node, sep int64) {
	t.stats.Splits++
	sib = &Node{level: n.level}
	if n.IsLeaf() {
		m := (len(n.keys) + 1) / 2
		sib.keys = append(sib.keys, n.keys[m:]...)
		sib.vals = append(sib.vals, n.vals[m:]...)
		n.keys = n.keys[:m:m]
		n.vals = n.vals[:m:m]
		sep = sib.keys[0]
	} else {
		m := (len(n.children) + 1) / 2
		// children m..end and routers m..end move; router m-1 is promoted.
		sep = n.keys[m-1]
		sib.children = append(sib.children, n.children[m:]...)
		sib.keys = append(sib.keys, n.keys[m:]...)
		n.children = n.children[:m:m]
		n.keys = n.keys[: m-1 : m-1]
	}
	sib.high, sib.hasHigh = n.high, n.hasHigh
	sib.right = n.right
	sib.left = n
	if n.right != nil {
		n.right.left = sib
	}
	n.right = sib
	n.high, n.hasHigh = sep, true
	return sib, sep
}

// AddChild installs a (separator, child) pair produced by Split into the
// parent node n. The child must cover keys in [sep, previous bound).
func (n *Node) AddChild(sep int64, child *Node) {
	if n.IsLeaf() {
		panic("btree: AddChild on leaf")
	}
	i := n.childIndex(sep)
	n.keys = insertAt(n.keys, i, sep)
	n.children = insertAt(n.children, i+1, child)
}

// GrowRoot replaces the root after a root split: old is the previous root
// (already split), sib its new sibling, sep the separator. It panics if old
// is not the current root — under the concurrent algorithms the caller must
// hold the root lock, so a mismatch is a protocol violation.
func (t *Tree) GrowRoot(old *Node, sep int64, sib *Node) {
	if old != t.root {
		panic("btree: GrowRoot on stale root")
	}
	t.root = &Node{
		level:    old.level + 1,
		keys:     []int64{sep},
		children: []*Node{old, sib},
	}
	t.height++
}

// LeafInsert stores key→val in leaf n (which the caller must have located
// and, under a concurrent algorithm, locked), reporting whether the key was
// fresh. The node may temporarily exceed capacity by one item; the caller
// is responsible for splitting it.
func (t *Tree) LeafInsert(n *Node, key int64, val uint64) bool {
	if !n.IsLeaf() {
		panic("btree: LeafInsert on internal node")
	}
	i, ok := blink.Find(n.keys, key)
	if ok {
		n.vals[i] = val
		return false
	}
	n.keys = insertAt(n.keys, i, key)
	n.vals = insertAt(n.vals, i, val)
	t.size++
	return true
}

// LeafDelete removes key from leaf n, reporting whether it was present.
// The caller is responsible for any restructuring if the leaf empties.
func (t *Tree) LeafDelete(n *Node, key int64) bool {
	if !n.IsLeaf() {
		panic("btree: LeafDelete on internal node")
	}
	i, ok := blink.Find(n.keys, key)
	if !ok {
		return false
	}
	n.keys = removeAt(n.keys, i)
	n.vals = removeAt(n.vals, i)
	t.size--
	return true
}

// Overfull reports whether the node exceeds capacity and must split.
func (t *Tree) Overfull(n *Node) bool { return n.Items() > t.cap }

// RemoveChild removes the empty node child from parent (merge-at-empty
// restructuring driven by a concurrent algorithm holding both locks).
func (t *Tree) RemoveChild(parent, child *Node) {
	if child.Items() != 0 {
		panic("btree: RemoveChild of non-empty node")
	}
	parent.removeChild(child)
	t.stats.Removes++
}

// ShrinkRoot collapses single-child or empty roots after merge-at-empty
// restructuring reaches the top of the tree.
func (t *Tree) ShrinkRoot() { t.shrinkRoot() }

// collapseEmpty implements merge-at-empty: if leaf n became empty, remove
// it from its parent, cascading upward; shrink the root if it ends up with
// a single child.
func (t *Tree) collapseEmpty(n *Node, path []*Node) {
	for n.Items() == 0 && len(path) > 0 {
		parent := path[len(path)-1]
		path = path[:len(path)-1]
		parent.removeChild(n)
		t.stats.Removes++
		n = parent
	}
	t.shrinkRoot()
}

// removeChild deletes child (which must be empty) from n, splicing sibling
// links and absorbing its key range into a neighbor. The range is absorbed
// by the right neighbor when one exists under the same parent — low bounds
// are implicit, so no stored high key changes. Only when the rightmost
// child is removed does the left sibling absorb, which requires extending
// the high keys down that sibling's rightmost spine.
func (n *Node) removeChild(child *Node) {
	i := indexOf(n.children, child)
	// Splice the level link chain.
	if child.left != nil {
		child.left.right = child.right
	}
	if child.right != nil {
		child.right.left = child.left
	}
	switch {
	case i < len(n.children)-1:
		// Right neighbor absorbs [child.low, ...): drop the router that
		// separated them; nothing else changes.
		n.keys = removeAt(n.keys, i)
	case i > 0:
		// Rightmost child removed: left sibling absorbs upward, and every
		// rightmost descendant's routed range extends with it.
		left := n.children[i-1]
		for s := left; ; s = s.children[len(s.children)-1] {
			s.high, s.hasHigh = child.high, child.hasHigh
			if s.IsLeaf() {
				break
			}
		}
		n.keys = removeAt(n.keys, i-1)
	}
	// i == 0 with a single child: n becomes empty and its own removal (or
	// a root shrink) absorbs the range one level up.
	n.children = removeAt(n.children, i)
	child.left, child.right = nil, nil
}

// shrinkRoot collapses chains of single-child roots and resets an empty
// internal root to an empty leaf.
func (t *Tree) shrinkRoot() {
	for !t.root.IsLeaf() && len(t.root.children) == 1 {
		t.root = t.root.children[0]
		t.height--
	}
	if !t.root.IsLeaf() && len(t.root.children) == 0 {
		t.root = &Node{level: 1}
		t.height = 1
	}
}

// ---------------------------------------------------------------------------
// Merge-at-half rebalancing.

// rebalance restores the merge-at-half invariant after a delete from n.
func (t *Tree) rebalance(n *Node, path []*Node) {
	for len(path) > 0 && n != t.root && n.Items() < t.minItems() {
		parent := path[len(path)-1]
		path = path[:len(path)-1]
		i := indexOf(parent.children, n)

		// Try borrowing from an adjacent same-parent sibling first.
		if i+1 < len(parent.children) && parent.children[i+1].Items() > t.minItems() {
			t.borrowFromRight(parent, i)
			return
		}
		if i > 0 && parent.children[i-1].Items() > t.minItems() {
			t.borrowFromLeft(parent, i)
			return
		}
		// Merge with a neighbor.
		if i+1 < len(parent.children) {
			t.mergeChildren(parent, i)
		} else if i > 0 {
			t.mergeChildren(parent, i-1)
		} else {
			return // single-child parent; handled by root shrink
		}
		n = parent
	}
	t.shrinkRoot()
}

// borrowFromRight moves the first item of parent.children[i+1] into
// parent.children[i].
func (t *Tree) borrowFromRight(parent *Node, i int) {
	t.stats.Borrows++
	l, r := parent.children[i], parent.children[i+1]
	if l.IsLeaf() {
		l.keys = append(l.keys, r.keys[0])
		l.vals = append(l.vals, r.vals[0])
		r.keys = removeAt(r.keys, 0)
		r.vals = removeAt(r.vals, 0)
		parent.keys[i] = r.keys[0]
	} else {
		// Rotate through the parent router.
		l.keys = append(l.keys, parent.keys[i])
		l.children = append(l.children, r.children[0])
		parent.keys[i] = r.keys[0]
		r.keys = removeAt(r.keys, 0)
		r.children = removeAt(r.children, 0)
	}
	l.high, l.hasHigh = parent.keys[i], true
}

// borrowFromLeft moves the last item of parent.children[i-1] into
// parent.children[i].
func (t *Tree) borrowFromLeft(parent *Node, i int) {
	t.stats.Borrows++
	l, r := parent.children[i-1], parent.children[i]
	if r.IsLeaf() {
		k := l.keys[len(l.keys)-1]
		v := l.vals[len(l.vals)-1]
		l.keys = l.keys[:len(l.keys)-1]
		l.vals = l.vals[:len(l.vals)-1]
		r.keys = insertAt(r.keys, 0, k)
		r.vals = insertAt(r.vals, 0, v)
		parent.keys[i-1] = k
	} else {
		c := l.children[len(l.children)-1]
		sep := l.keys[len(l.keys)-1]
		l.keys = l.keys[:len(l.keys)-1]
		l.children = l.children[:len(l.children)-1]
		r.children = insertAt(r.children, 0, c)
		r.keys = insertAt(r.keys, 0, parent.keys[i-1])
		parent.keys[i-1] = sep
	}
	l.high, l.hasHigh = parent.keys[i-1], true
}

// mergeChildren merges parent.children[i+1] into parent.children[i].
func (t *Tree) mergeChildren(parent *Node, i int) {
	t.stats.Merges++
	l, r := parent.children[i], parent.children[i+1]
	if l.IsLeaf() {
		l.keys = append(l.keys, r.keys...)
		l.vals = append(l.vals, r.vals...)
	} else {
		l.keys = append(l.keys, parent.keys[i])
		l.keys = append(l.keys, r.keys...)
		l.children = append(l.children, r.children...)
	}
	l.high, l.hasHigh = r.high, r.hasHigh
	l.right = r.right
	if r.right != nil {
		r.right.left = l
	}
	parent.keys = removeAt(parent.keys, i)
	parent.children = removeAt(parent.children, i+1)
	r.left, r.right = nil, nil
}

// ---------------------------------------------------------------------------
// Small slice helpers.

func insertAt[T any](s []T, i int, v T) []T {
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeAt[T any](s []T, i int) []T {
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

func indexOf(s []*Node, n *Node) int {
	for i, c := range s {
		if c == n {
			return i
		}
	}
	panic("btree: node not found in parent")
}
