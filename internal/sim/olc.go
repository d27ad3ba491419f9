package sim

import (
	"btreeperf/internal/btree"
	"btreeperf/internal/des"
	"btreeperf/internal/lock"
	"btreeperf/internal/workload"
)

// Optimistic lock-coupling in the simulator: readers descend taking no
// locks, sampling each node's version word before the node access and
// re-validating it after; a failed validation restarts the descent from
// the root, and after lock.OLCMaxAttempts failed descents the operation
// falls back to the locked Link-type path. Writers are exactly the
// Link-type protocol, entered through the version-aware lock helpers so
// every W critical section is bracketed by version bumps.

// readBegin samples n's version word; ok is false while a writer holds
// the node (version odd).
func (s *session) readBegin(n *btree.Node) (uint64, bool) {
	v := s.ver[n]
	return v, v&1 == 0
}

// validate reports whether n's version word is unchanged since readBegin.
func (s *session) validate(n *btree.Node, v uint64) bool { return s.ver[n] == v }

// olcAccess pays one latch-free node read: the full (possibly on-disk)
// access on the first visit, the warm in-memory cost on a revisit — a
// restarted descent re-walks a path the failed attempt just faulted
// into the buffer. This matches the analytical model's accounting of
// failed descents at memory speed.
func (s *session) olcAccess(p *des.Proc, n *btree.Node, visited map[*btree.Node]bool) {
	if visited[n] {
		s.work(p, s.cfg.Costs.SearchMem*s.cfg.Costs.Dilation)
		return
	}
	visited[n] = true
	s.access(p, n.Level())
}

// olcOp performs one operation under optimistic lock-coupling.
func (s *session) olcOp(p *des.Proc, op workload.Op, key int64) float64 {
	visited := make(map[*btree.Node]bool)
	if op == workload.Search {
		for attempt := 0; attempt < lock.OLCMaxAttempts; attempt++ {
			if done, ok := s.olcTrySearch(p, key, visited); ok {
				return done
			}
			s.readRestarts++
		}
		s.readFallbacks++
		return s.linkOp(p, op, key)
	}

	for attempt := 0; attempt < lock.OLCMaxAttempts; attempt++ {
		leaf, stack, ok := s.olcTryDescend(p, key, visited)
		if !ok {
			s.readRestarts++
			continue
		}
		return s.linkUpdateAt(p, op, key, leaf, stack)
	}
	s.readFallbacks++
	return s.linkOp(p, op, key)
}

// olcTrySearch makes one latch-free descent to the leaf and reads it,
// reporting failure on the first version conflict.
func (s *session) olcTrySearch(p *des.Proc, key int64, visited map[*btree.Node]bool) (float64, bool) {
	n, _, ok := s.olcTryDescend(p, key, visited)
	if !ok {
		return 0, false
	}
	for {
		v, stable := s.readBegin(n)
		if !stable {
			return 0, false
		}
		s.olcAccess(p, n, visited)
		if n.Covers(key) {
			n.LeafGet(key)
			return p.Now(), s.validate(n, v)
		}
		right := n.Right()
		if !s.validate(n, v) {
			return 0, false
		}
		s.crossings++
		n = right
	}
}

// olcTryDescend makes one latch-free descent to the (unlocked) leaf
// covering key, collecting the ancestor stack for split repair. The leaf
// itself is not validated: the update W-locks it.
func (s *session) olcTryDescend(p *des.Proc, key int64, visited map[*btree.Node]bool) (*btree.Node, []*btree.Node, bool) {
	var stack []*btree.Node
	n := s.tree.Root()
	for !n.IsLeaf() {
		v, stable := s.readBegin(n)
		if !stable {
			return nil, nil, false
		}
		s.olcAccess(p, n, visited)
		if !n.Covers(key) {
			right := n.Right()
			if !s.validate(n, v) {
				return nil, nil, false
			}
			s.crossings++
			n = right
			continue
		}
		child := n.FindChild(key)
		if !s.validate(n, v) {
			return nil, nil, false
		}
		stack = append(stack, n)
		n = child
	}
	return n, stack, true
}
