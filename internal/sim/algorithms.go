package sim

import (
	"btreeperf/internal/btree"
	"btreeperf/internal/core"
	"btreeperf/internal/des"
	"btreeperf/internal/workload"
)

// held is one lock an operation still holds.
type held struct {
	node  *btree.Node
	grant *des.Grant
}

// ---------------------------------------------------------------------------
// Lock-coupled operations: Naive Lock-coupling, Optimistic Descent (its
// searches, first descents and redos) and Two-Phase Locking, which is
// Naive Lock-coupling that never releases.

// coupledDescend is the lock-coupled descent: from the root to the leaf
// on key's path, locking each child in the class classOf gives it before
// deciding about its ancestors' locks — retain reports whether they stay
// held now that child is locked. It returns the locks still held, the
// leaf's last; the leaf has not been accessed yet.
func (s *session) coupledDescend(p *des.Proc, key int64, classOf func(*btree.Node) des.Class, retain func(child *btree.Node) bool) []held {
	n, g := s.lockRoot(p, classOf)
	chain := []held{{n, g}}
	for !n.IsLeaf() {
		s.access(p, n.Level())
		child := n.FindChild(key)
		cg := s.lockOf(child).Acquire(p, classOf(child))
		if !retain(child) {
			s.releaseAll(chain)
			chain = chain[:0]
		}
		chain = append(chain, held{child, cg})
		n = child
	}
	return chain
}

// The three release disciplines of a lock-coupled descent.
func never(*btree.Node) bool  { return false } // searches, OD first descents
func always(*btree.Node) bool { return true }  // Two-Phase Locking

// whileUnsafe retains the ancestors of a child that op might split or
// empty: the Naive Lock-coupling update.
func (s *session) whileUnsafe(op workload.Op) func(*btree.Node) bool {
	if op == workload.Delete {
		return func(child *btree.Node) bool { return !s.tree.DeleteSafe(child) }
	}
	return func(child *btree.Node) bool { return !s.tree.InsertSafe(child) }
}

// coupledSearch descends with R-lock coupling and reads the leaf. It
// returns the operation's completion time.
func (s *session) coupledSearch(p *des.Proc, key int64, retain func(*btree.Node) bool) float64 {
	chain := s.coupledDescend(p, key, readClass, retain)
	leaf := chain[len(chain)-1].node
	s.access(p, 1)
	leaf.LeafGet(key)
	done := p.Now()
	s.releaseAll(chain)
	return done
}

// coupledUpdate descends placing W locks, applies the leaf modification
// and any restructuring under the retained locks, and releases them as
// the recovery protocol dictates.
func (s *session) coupledUpdate(p *des.Proc, op workload.Op, key int64, retain func(*btree.Node) bool) float64 {
	chain := s.coupledDescend(p, key, writeClass, retain)
	leaf := chain[len(chain)-1].node
	s.work(p, s.m())
	if op == workload.Insert {
		s.tree.LeafInsert(leaf, key, uint64(key))
		s.propagateSplits(p, chain)
	} else {
		s.tree.LeafDelete(leaf, key)
		s.propagateMerges(p, chain)
	}
	return s.finishUpdate(p, chain)
}

// odUpdate makes an optimistic first descent with R locks, W-locking only
// the leaf (by lock coupling from its parent). If the leaf is unsafe it
// releases everything and re-descends with the Naive Lock-coupling
// protocol (a redo operation).
func (s *session) odUpdate(p *des.Proc, op workload.Op, key int64) float64 {
	unsafe := s.whileUnsafe(op)
	chain := s.coupledDescend(p, key, firstClass, never)
	leaf := chain[0].node
	if unsafe(leaf) {
		// Inspect-and-release, then redo pessimistically.
		s.access(p, 1)
		s.releaseAll(chain)
		s.restarts++
		return s.coupledUpdate(p, op, key, unsafe)
	}
	s.work(p, s.m())
	if op == workload.Insert {
		s.tree.LeafInsert(leaf, key, uint64(key))
	} else {
		s.tree.LeafDelete(leaf, key)
	}
	return s.finishUpdate(p, chain)
}

// firstClass is the lock class an OD first descent places on a node:
// R everywhere except the leaf.
func firstClass(n *btree.Node) des.Class {
	if n.IsLeaf() {
		return des.Write
	}
	return des.Read
}

// propagateSplits splits overfull nodes bottom-up through the retained
// lock chain; the topmost retained node is either safe (absorbs the split)
// or the root (grows the tree).
func (s *session) propagateSplits(p *des.Proc, chain []held) {
	i := len(chain) - 1
	node := chain[i].node
	for s.tree.Overfull(node) {
		s.work(p, s.sp(node.Level()))
		sib, sep := s.tree.Split(node)
		if i == 0 {
			// The whole retained chain was unsafe up to the root.
			s.tree.GrowRoot(node, sep, sib)
			return
		}
		i--
		node = chain[i].node
		node.AddChild(sep, sib)
	}
}

// propagateMerges removes emptied nodes bottom-up through the retained
// chain (merge-at-empty), shrinking the root when the chain reaches it.
func (s *session) propagateMerges(p *des.Proc, chain []held) {
	i := len(chain) - 1
	node := chain[i].node
	for node.Items() == 0 && i > 0 {
		s.work(p, s.mg(node.Level()))
		parent := chain[i-1].node
		s.tree.RemoveChild(parent, node)
		i--
		node = parent
	}
	if chain[0].node == s.tree.Root() {
		s.tree.ShrinkRoot()
	}
}

// finishUpdate applies the recovery protocol and releases the retained
// chain: Naive recovery holds every retained W lock until commit;
// Leaf-only releases the non-leaf locks first and holds only the leaf.
// It returns the B-tree operation's logical completion time — the commit
// retention that follows blocks other operations but is not part of this
// operation's own index response time.
func (s *session) finishUpdate(p *des.Proc, chain []held) float64 {
	done := p.Now()
	switch s.cfg.Recovery {
	case core.NaiveRecovery:
		p.Delay(s.cfg.TTrans)
		s.releaseAll(chain)
	case core.LeafOnly:
		leaf := chain[len(chain)-1]
		s.releaseAll(chain[:len(chain)-1])
		p.Delay(s.cfg.TTrans)
		s.releaseNode(leaf.node, leaf.grant)
	default:
		s.releaseAll(chain)
	}
	return done
}

func (s *session) releaseAll(chain []held) {
	for _, h := range chain {
		s.releaseNode(h.node, h.grant)
	}
}

// acquireNode and releaseNode are the version-aware lock entry points:
// under OLC every W critical section bumps the node's version word on
// the way in and out (odd exactly while held), so latch-free readers
// can detect overlap. For the other algorithms they are plain lock
// operations.
func (s *session) acquireNode(p *des.Proc, n *btree.Node, c des.Class) *des.Grant {
	g := s.lockOf(n).Acquire(p, c)
	if s.versioned && c == des.Write {
		s.ver[n]++
	}
	return g
}

func (s *session) releaseNode(n *btree.Node, g *des.Grant) {
	if s.versioned && g.Class() == des.Write {
		s.ver[n]++
	}
	s.lockOf(n).Release(g)
}

// ---------------------------------------------------------------------------
// Link-type (Lehman–Yao) operations.

// linkOp holds at most one lock at a time, using right links to recover
// from concurrent splits. Updates W-lock only the nodes they modify.
func (s *session) linkOp(p *des.Proc, op workload.Op, key int64) float64 {
	n, stack := s.linkDescend(p, 1, key)
	if op != workload.Search {
		return s.linkUpdateAt(p, op, key, n, stack)
	}
	g := s.lockOf(n).Acquire(p, des.Read)
	s.access(p, 1)
	n, g = s.linkMoveRight(p, n, g, key, des.Read)
	n.LeafGet(key)
	s.lockOf(n).Release(g)
	return p.Now()
}

// linkDescend returns the (unlocked) candidate for key at the given
// level, 1 being the leaves, and the ancestors it routed through — the
// stack split repair climbs. It R-locks one node at a time.
func (s *session) linkDescend(p *des.Proc, level int, key int64) (*btree.Node, []*btree.Node) {
	var stack []*btree.Node
	n := s.tree.Root()
	for n.Level() > level {
		g := s.lockOf(n).Acquire(p, des.Read)
		s.access(p, n.Level())
		n, g = s.linkMoveRight(p, n, g, key, des.Read)
		child := n.FindChild(key)
		stack = append(stack, n)
		s.lockOf(n).Release(g)
		n = child
	}
	return n, stack
}

// linkUpdateAt applies op at the candidate leaf a descent located: the
// right-link update tail shared by Link-type and OLC (whose W sections
// the version-aware lock helpers bracket with version bumps).
func (s *session) linkUpdateAt(p *des.Proc, op workload.Op, key int64, n *btree.Node, stack []*btree.Node) float64 {
	g := s.acquireNode(p, n, des.Write)
	s.work(p, s.m())
	n, g = s.linkMoveRight(p, n, g, key, des.Write)

	if op == workload.Delete {
		// Merge-at-empty under the Link-type algorithm: emptied leaves stay
		// in place (the paper ignores the vanishingly rare merges).
		s.tree.LeafDelete(n, key)
		return s.finishUpdate(p, []held{{n, g}})
	}
	s.tree.LeafInsert(n, key, uint64(key))
	return s.linkRepairSplits(p, n, g, stack)
}

// linkMoveRight follows right links while key lies beyond the node's high
// key, re-locking with the same class at each hop.
func (s *session) linkMoveRight(p *des.Proc, n *btree.Node, g *des.Grant, key int64, class des.Class) (*btree.Node, *des.Grant) {
	for !n.Covers(key) {
		right := n.Right()
		s.releaseNode(n, g)
		s.crossings++
		n = right
		g = s.acquireNode(p, n, class)
		s.access(p, n.Level())
	}
	return n, g
}

// linkRepairSplits performs half-splits bottom-up: while the current node
// is overfull it is split under its own W lock, the lock released, and the
// parent W-locked to insert the new (separator, sibling) pair. When no
// split is needed the recovery protocol applies to the leaf lock (holding
// more would break the one-lock-at-a-time discipline, so a splitting
// insert releases promptly). Returns the logical completion time.
func (s *session) linkRepairSplits(p *des.Proc, n *btree.Node, g *des.Grant, stack []*btree.Node) float64 {
	if !s.tree.Overfull(n) {
		return s.finishUpdate(p, []held{{n, g}})
	}
	for s.tree.Overfull(n) {
		s.work(p, s.sp(n.Level()))
		sib, sep := s.tree.Split(n)
		if len(stack) == 0 && n == s.tree.Root() {
			s.tree.GrowRoot(n, sep, sib)
			break
		}
		level := n.Level() + 1
		s.releaseNode(n, g)

		var parent *btree.Node
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		} else {
			// The root grew since the descent began; locate the parent
			// level from the current root.
			parent, _ = s.linkDescend(p, level, sep)
		}
		g = s.acquireNode(p, parent, des.Write)
		s.access(p, level)
		parent, g = s.linkMoveRight(p, parent, g, sep, des.Write)
		s.work(p, s.mod(level))
		parent.AddChild(sep, sib)
		n = parent
	}
	s.releaseNode(n, g)
	return p.Now()
}
