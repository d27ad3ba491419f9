package cbtree

// Search returns the value stored under key.
func (t *Tree) Search(key int64) (uint64, bool) {
	switch t.alg {
	case LinkType:
		return t.linkSearch(key)
	case OLC:
		return t.olcSearch(key)
	default:
		return t.coupledSearch(key)
	}
}

// Insert stores key→val. A fresh insertion reports true; replacing an
// existing key's value reports false.
func (t *Tree) Insert(key int64, val uint64) bool {
	switch t.alg {
	case LockCoupling:
		return t.lcInsert(key, val)
	case Optimistic:
		return t.optInsert(key, val)
	case OLC:
		return t.olcInsert(key, val)
	default:
		return t.linkInsert(key, val)
	}
}

// Delete removes key, reporting whether it was present. Emptied nodes are
// left in place (lazy merge-at-empty); see Compact.
func (t *Tree) Delete(key int64) bool {
	switch t.alg {
	case LockCoupling:
		return t.lcDelete(key)
	case Optimistic:
		return t.optDelete(key)
	case OLC:
		return t.olcDelete(key)
	default:
		return t.linkDelete(key)
	}
}

// ---------------------------------------------------------------------------
// Lock-coupled operations (LockCoupling searches/updates, Optimistic
// searches and redo descents).

// coupledSearch descends with shared-lock coupling.
func (t *Tree) coupledSearch(key int64) (uint64, bool) {
	n := t.lockRoot(alwaysRead)
	for !n.isLeaf() {
		child := n.children[n.childIndex(key)]
		child.mu.RLock()
		n.mu.RUnlock()
		n = child
	}
	i, ok := n.keyIndex(key)
	var v uint64
	if ok {
		v = n.vals[i]
	}
	n.mu.RUnlock()
	return v, ok
}

// lcInsert is the Naive Lock-coupling insert: exclusive locks down the
// tree, ancestors released whenever the child cannot split.
func (t *Tree) lcInsert(key int64, val uint64) bool {
	var room [stackDepth]*node
	n := t.lockRoot(alwaysWrite)
	chain := append(room[:0], n)
	for !n.isLeaf() {
		child := n.children[n.childIndex(key)]
		child.mu.Lock()
		if t.insertSafe(child) {
			unlockAll(chain)
			chain = chain[:0]
		}
		chain = append(chain, child)
		n = child
	}
	if i, ok := n.keyIndex(key); ok {
		n.vals[i] = val
		unlockAll(chain)
		return false
	}
	i, _ := n.keyIndex(key)
	n.keys = insertAt(n.keys, i, key)
	n.vals = insertAt(n.vals, i, val)
	t.size.Add(1)

	// Split upward through the retained chain; the topmost retained node
	// is either safe (absorbs the split) or the root (grows the tree).
	idx := len(chain) - 1
	for n.items() > t.cap {
		sib, sep := t.split(n)
		if idx == 0 {
			t.growRoot(n, sep, sib)
			break
		}
		idx--
		n = chain[idx]
		t.addChild(n, sep, sib)
	}
	unlockAll(chain)
	return true
}

// lcDelete descends with exclusive-lock coupling. Deletes never
// restructure under lazy merge-at-empty, so every child is delete-safe and
// the parent lock is released immediately.
func (t *Tree) lcDelete(key int64) bool {
	n := t.lockRoot(alwaysWrite)
	for !n.isLeaf() {
		child := n.children[n.childIndex(key)]
		child.mu.Lock()
		n.mu.Unlock()
		n = child
	}
	ok := t.leafRemove(n, key)
	n.mu.Unlock()
	return ok
}

// leafRemove deletes key from a leaf. Caller holds n.mu exclusively.
func (t *Tree) leafRemove(n *node, key int64) bool {
	i, ok := n.keyIndex(key)
	if !ok {
		return false
	}
	if n.fixed {
		n.removeFixed(i)
	} else {
		n.keys = removeAt(n.keys, i)
		n.vals = removeAt(n.vals, i)
	}
	t.size.Add(-1)
	return true
}

func unlockAll(chain []*node) {
	for _, n := range chain {
		n.mu.Unlock()
	}
}

// ---------------------------------------------------------------------------
// Optimistic Descent.

// optInsert descends optimistically (shared locks, exclusive only on the
// leaf); if the leaf might split it releases everything and redoes the
// descent with the lock-coupling protocol.
func (t *Tree) optInsert(key int64, val uint64) bool {
	n := t.lockRoot(writeIfLeaf)
	for !n.isLeaf() {
		child := n.children[n.childIndex(key)]
		if child.isLeaf() {
			child.mu.Lock()
		} else {
			child.mu.RLock()
		}
		n.mu.RUnlock()
		n = child
	}
	if !t.insertSafe(n) {
		n.mu.Unlock()
		t.restarts.Add(1)
		return t.lcInsert(key, val)
	}
	fresh := true
	if i, ok := n.keyIndex(key); ok {
		n.vals[i] = val
		fresh = false
	} else {
		i, _ := n.keyIndex(key)
		n.keys = insertAt(n.keys, i, key)
		n.vals = insertAt(n.vals, i, val)
		t.size.Add(1)
	}
	n.mu.Unlock()
	return fresh
}

// optDelete's first descent always succeeds: deletes never restructure
// under lazy merge-at-empty.
func (t *Tree) optDelete(key int64) bool {
	n := t.lockRoot(writeIfLeaf)
	for !n.isLeaf() {
		child := n.children[n.childIndex(key)]
		if child.isLeaf() {
			child.mu.Lock()
		} else {
			child.mu.RLock()
		}
		n.mu.RUnlock()
		n = child
	}
	ok := t.leafRemove(n, key)
	n.mu.Unlock()
	return ok
}

// ---------------------------------------------------------------------------
// Link-type (Lehman–Yao).

// moveRightR follows right links while key lies beyond the node's high
// key, holding at most one shared lock at a time. n must be R-locked;
// the returned node is R-locked.
func (t *Tree) moveRightR(n *node, key int64) *node {
	for !n.covers(key) {
		r := n.right.Load()
		n.mu.RUnlock()
		t.crossings.Add(1)
		r.mu.RLock()
		n = r
	}
	return n
}

// moveRightW is moveRightR with exclusive locks.
func (t *Tree) moveRightW(n *node, key int64) *node {
	for !n.covers(key) {
		r := n.right.Load()
		n.mu.Unlock()
		t.crossings.Add(1)
		r.mu.Lock()
		n = r
	}
	return n
}

// linkDescend returns the (unlocked) leaf candidate for key, appending
// the ancestors it routed through — the stack split repair climbs — to
// stack when stack is non-nil. Reading level without the lock is safe:
// it is immutable.
func (t *Tree) linkDescend(key int64, stack []*node) (*node, []*node) {
	n := t.root.Load()
	for n.level > 1 {
		n.mu.RLock()
		n = t.moveRightR(n, key)
		child := n.children[n.childIndex(key)]
		if stack != nil {
			stack = append(stack, n)
		}
		n.mu.RUnlock()
		n = child
	}
	return n, stack
}

func (t *Tree) linkSearch(key int64) (uint64, bool) {
	n, _ := t.linkDescend(key, nil)
	n.mu.RLock()
	n = t.moveRightR(n, key)
	i, ok := n.keyIndex(key)
	var v uint64
	if ok {
		v = n.vals[i]
	}
	n.mu.RUnlock()
	return v, ok
}

func (t *Tree) linkInsert(key int64, val uint64) bool {
	var room [stackDepth]*node
	n, stack := t.linkDescend(key, room[:0])
	n.mu.Lock()
	n = t.moveRightW(n, key)
	if i, ok := n.keyIndex(key); ok {
		n.vals[i] = val
		n.mu.Unlock()
		return false
	}
	i, _ := n.keyIndex(key)
	n.keys = insertAt(n.keys, i, key)
	n.vals = insertAt(n.vals, i, val)
	t.size.Add(1)

	// Half-split repair: split under the node's own lock, release, then
	// lock the parent to install the new pointer.
	for n.items() > t.cap {
		sib, sep := t.split(n)
		if len(stack) == 0 && t.root.Load() == n {
			t.growRoot(n, sep, sib)
			break
		}
		level := n.level + 1
		n.mu.Unlock()
		var parent *node
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		} else {
			// The root grew since our descent; find the parent level.
			parent = t.linkLocate(level, sep)
		}
		parent.mu.Lock()
		parent = t.moveRightW(parent, sep)
		t.addChild(parent, sep, sib)
		n = parent
	}
	n.mu.Unlock()
	return true
}

func (t *Tree) linkDelete(key int64) bool {
	n, _ := t.linkDescend(key, nil)
	n.mu.Lock()
	n = t.moveRightW(n, key)
	ok := t.leafRemove(n, key)
	n.mu.Unlock()
	return ok
}

// linkLocate descends from the current root to the node at the given
// level responsible for key.
func (t *Tree) linkLocate(level int, key int64) *node {
	n := t.root.Load()
	for n.level > level {
		n.mu.RLock()
		n = t.moveRightR(n, key)
		child := n.children[n.childIndex(key)]
		n.mu.RUnlock()
		n = child
	}
	return n
}

// ---------------------------------------------------------------------------
// Range scans.

// RangeLeaves is the range scan, one leaf at a time: it calls fn with each
// leaf's run of the keys in [lo, hi] and their values, in ascending key
// order, stopping when fn returns false. Runs are never empty. The
// slices are the leaf's own storage (a validated copy of it under OLC)
// and are valid only during the call: fn must not retain or modify
// them, and — fn runs under the leaf's R lock — must not call back into
// the tree. It descends to the leaf covering lo, then walks the leaf
// chain with shared-lock coupling (latch-free under OLC); concurrent
// splits are neither missed nor double-visited, and each run is seen as
// of one instant (a whole leaf, or under OLC up to olcScanChunk items).
func (t *Tree) RangeLeaves(lo, hi int64, fn func(keys []int64, vals []uint64) bool) {
	if hi < lo {
		return
	}
	if t.alg == OLC {
		t.olcRangeLeaves(lo, hi, fn)
		return
	}
	var n *node
	if t.alg == LinkType {
		n, _ = t.linkDescend(lo, nil)
		n.mu.RLock()
		n = t.moveRightR(n, lo)
	} else {
		n = t.lockRoot(alwaysRead)
		for !n.isLeaf() {
			child := n.children[n.childIndex(lo)]
			child.mu.RLock()
			n.mu.RUnlock()
			n = child
		}
	}
	for {
		i, j := lowerBoundLinear(n.keys, lo), runEnd(n.keys, hi)
		next := n.right.Load()
		if (i < j && !fn(n.keys[i:j], n.vals[i:j])) || j < len(n.keys) || next == nil {
			n.mu.RUnlock()
			return
		}
		next.mu.RLock()
		n.mu.RUnlock()
		n = next
	}
}

// Range calls fn for each key in [lo, hi] in ascending order, stopping if
// fn returns false: RangeLeaves, one key at a time.
func (t *Tree) Range(lo, hi int64, fn func(key int64, val uint64) bool) {
	t.RangeLeaves(lo, hi, func(keys []int64, vals []uint64) bool {
		for i, k := range keys {
			if !fn(k, vals[i]) {
				return false
			}
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// Compact.

// Compact rebuilds the tree, reclaiming nodes emptied by deletes. It
// requires quiescence: the caller must guarantee no concurrent operations
// are in flight while Compact runs.
func (t *Tree) Compact() {
	fresh := New(t.cap, t.alg)
	if t.probe != nil {
		fresh.Instrument(t.probe)
	}
	t.Range(-1<<63, 1<<63-1, func(k int64, v uint64) bool {
		fresh.Insert(k, v)
		return true
	})
	t.root.Store(fresh.root.Load())
	t.size.Store(fresh.size.Load())
}
