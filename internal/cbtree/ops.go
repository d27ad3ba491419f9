package cbtree

// The four protocols. Each is written once, over the node kernel in
// cbtree.go: the two lock-coupling algorithms share one top-down descent
// (coupledDescend), the two right-link algorithms share one write path
// (linkInsert, linkDelete, moveRightW, linkDescend) and differ only in how
// the leaf is found and read (olc.go).

// Search returns the value stored under key.
func (t *Tree) Search(key int64) (uint64, bool) { return t.SearchAt(key, nil) }

// SearchAt is Search starting from h, key's hint from Locate (nil or
// empty: from the root). Under OLC, if the hinted leaf still has the
// version Locate read it at, the answer is the hint's, and the lookup
// linearizes at that validation; otherwise it is an ordinary Search.
func (t *Tree) SearchAt(key int64, h *Hint) (uint64, bool) {
	if t.alg == OLC {
		return t.olcSearch(key, h)
	}
	return t.lockedSearch(key)
}

// Insert stores key→val. A fresh insertion reports true; replacing an
// existing key's value reports false.
func (t *Tree) Insert(key int64, val uint64) bool { return t.InsertAt(key, val, nil) }

// InsertAt is Insert starting from h, key's hint from Locate (nil or
// empty: from the root). If neither the hinted leaf nor any node on its
// path has changed since Locate read it, it locks that leaf, moves right
// if a split has since moved key on, and repairs its own split through
// the hinted path; otherwise it is an ordinary Insert.
func (t *Tree) InsertAt(key int64, val uint64, h *Hint) bool {
	switch t.alg {
	case LockCoupling:
		return t.lcInsert(key, val)
	case Optimistic:
		return t.optInsert(key, val)
	default:
		return t.linkInsert(key, val, h)
	}
}

// Delete removes key, reporting whether it was present. Emptied nodes are
// left in place (lazy merge-at-empty); see Compact.
func (t *Tree) Delete(key int64) bool { return t.DeleteAt(key, nil) }

// DeleteAt is Delete starting from h, key's hint from Locate (nil or
// empty: from the root), as InsertAt.
func (t *Tree) DeleteAt(key int64, h *Hint) bool {
	switch t.alg {
	case LockCoupling:
		return t.coupledDelete(key, alwaysWrite)
	case Optimistic:
		return t.coupledDelete(key, writeIfLeaf)
	default:
		return t.linkDelete(key, h)
	}
}

// rlockLeaf returns the leaf covering key, R-locked: by shared-lock
// coupling under the two algorithms whose trees are never seen mid-split,
// by the Link-type descent otherwise.
func (t *Tree) rlockLeaf(key int64) *node {
	if t.alg == LockCoupling || t.alg == Optimistic {
		return t.coupledDescend(key, alwaysRead)
	}
	n, _ := t.linkDescend(1, key, nil)
	n.mu.RLock()
	return t.moveRightR(n, key)
}

// lockedSearch is the point lookup of the three lock-based algorithms and
// OLC's pessimistic fallback.
func (t *Tree) lockedSearch(key int64) (uint64, bool) {
	n := t.rlockLeaf(key)
	i, ok := n.keyIndex(key)
	var v uint64
	if ok {
		v = n.vals[i]
	}
	n.mu.RUnlock()
	return v, ok
}

// ---------------------------------------------------------------------------
// Lock-coupled operations (LockCoupling searches/updates, Optimistic
// searches, first descents and redo descents).

// coupledDescend is the lock-coupled descent: from the root to the leaf
// on key's path, locking each child in the class classOf gives it before
// releasing its parent. The leaf is returned locked.
func (t *Tree) coupledDescend(key int64, classOf func(*node) bool) *node {
	n := t.lockRoot(classOf)
	for !n.isLeaf() {
		child := n.children[n.childIndex(key)]
		child.lockAs(classOf(child))
		n.unlockAs(classOf(n))
		n = child
	}
	return n
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
	// Split upward through the retained chain; the topmost retained node
	// is either safe (absorbs the split) or the root (grows the tree).
	fresh, sib, sep := t.leafPut(n, key, val)
	for idx := len(chain) - 1; sib != nil; {
		if idx == 0 {
			t.growRoot(n, sep, sib)
			break
		}
		idx--
		n = chain[idx]
		sib, sep = t.addChild(n, sep, sib)
	}
	unlockAll(chain)
	return fresh
}

// coupledDelete descends with lock coupling — exclusive all the way under
// Naive Lock-coupling, exclusive on the leaf only under Optimistic
// Descent — and removes key from the leaf. Deletes never restructure
// under lazy merge-at-empty, so every child is delete-safe, the parent
// lock is released at once and the optimistic descent never redoes.
func (t *Tree) coupledDelete(key int64, classOf func(*node) bool) bool {
	n := t.coupledDescend(key, classOf)
	ok := t.leafRemove(n, key)
	n.mu.Unlock()
	return ok
}

func unlockAll(chain []*node) {
	for _, n := range chain {
		n.mu.Unlock()
	}
}

// optInsert descends optimistically (shared locks, exclusive only on the
// leaf); if the leaf might split it releases everything and redoes the
// descent with the lock-coupling protocol.
func (t *Tree) optInsert(key int64, val uint64) bool {
	n := t.coupledDescend(key, writeIfLeaf)
	if !t.insertSafe(n) {
		n.mu.Unlock()
		t.restarts.Add(1)
		return t.lcInsert(key, val)
	}
	fresh, _, _ := t.leafPut(n, key, val)
	n.mu.Unlock()
	return fresh
}

// ---------------------------------------------------------------------------
// Right-link operations (Link-type, and OLC's writers and locked
// fallbacks). Every W section is entered through LockV and left through
// UnlockV when it changed something a reader can see, UnlockClean when
// it did not — the version word OLC's latch-free readers validate
// against; under Link-type nobody reads it.

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

// moveRightW is moveRightR with exclusive locks: n must be locked
// through LockV and unchanged; the returned node is locked through LockV.
func (t *Tree) moveRightW(n *node, key int64) *node {
	for !n.covers(key) {
		r := n.right.Load()
		n.mu.UnlockClean()
		t.crossings.Add(1)
		r.mu.LockV()
		n = r
	}
	return n
}

// linkDescend returns the (unlocked) candidate for key at the given
// level, 1 being the leaves, appending the ancestors it routed through —
// the stack split repair climbs — to stack when stack is non-nil.
// Reading a node's level without the lock is safe: it is immutable.
func (t *Tree) linkDescend(level int, key int64, stack []*node) (*node, []*node) {
	n := t.root.Load()
	for n.level > level {
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

// wlockLeaf returns the leaf covering key, locked through LockV, and the
// ancestor stack of the descent that found it (when stack is non-nil):
// the hint's leaf and path when h holds a current one, else a latch-free
// descent under OLC, the Link-type one otherwise. A writer may still
// change the hinted leaf before the lock is granted; keys never move left
// (a node's range only loses its top to splits), so moveRightW finds key.
func (t *Tree) wlockLeaf(key int64, stack []*node, h *Hint) (*node, []*node) {
	var n *node
	switch {
	case t.current(h, true):
		n, stack = h.leaf, h.path[:h.depth]
	case t.alg == OLC:
		n, stack = t.olcDescendLeaf(key, stack)
	default:
		n, stack = t.linkDescend(1, key, stack)
	}
	n.mu.LockV()
	return t.moveRightW(n, key), stack
}

func (t *Tree) linkInsert(key int64, val uint64, h *Hint) bool {
	var room [stackDepth]*node
	n, stack := t.wlockLeaf(key, room[:0], h)
	// Half-split repair: split under the node's own lock, release, then
	// lock the parent to install the new pointer.
	fresh, sib, sep := t.leafPut(n, key, val)
	for sib != nil {
		if len(stack) == 0 && t.root.Load() == n {
			t.growRoot(n, sep, sib)
			break
		}
		n.mu.UnlockV()
		var parent *node
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		} else {
			// The root grew since our descent; find the parent level
			// under locks (rare, and correctness-critical).
			parent, _ = t.linkDescend(n.level+1, sep, nil)
		}
		parent.mu.LockV()
		n = t.moveRightW(parent, sep)
		sib, sep = t.addChild(n, sep, sib)
	}
	n.mu.UnlockV()
	return fresh
}

func (t *Tree) linkDelete(key int64, h *Hint) bool {
	n, _ := t.wlockLeaf(key, nil, h)
	ok := t.leafRemove(n, key)
	if ok {
		n.mu.UnlockV()
	} else {
		n.mu.UnlockClean()
	}
	return ok
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
	n := t.rlockLeaf(lo)
	for {
		keys, vals := n.leaf()
		i, j := lowerBoundLinear(keys, lo), runEnd(keys, hi)
		next := n.right.Load()
		if (i < j && !fn(keys[i:j], vals[i:j])) || j < len(keys) || next == nil {
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
