package cbtree

// A group's descents, side by side. Under OLC a point operation costs one
// latch-free visit per level, and on a large tree every visit is a cache
// miss: one descent's misses form a dependent chain, but different keys'
// descents do not. Locate walks a group of keys down the tree together,
// every key taking its step at one level before any takes the next, so
// the group's misses on a level are independent loads the processor can
// overlap. Each operation then starts from what its descent found.

// Hint is where Locate found one key: the leaf that covered it, the
// version the leaf's read validated against, what the leaf held for the
// key, and the inner nodes the descent routed through, root first, with
// their versions (the stack split repair climbs). The zero Hint is empty:
// an operation given it takes its ordinary path. A hint belongs to the key
// and the tree it was located for, and must not outlive a Compact.
type Hint struct {
	leaf  *node
	ver   uint64
	val   uint64
	found bool
	depth int
	path  [stackDepth]*node
	vers  [stackDepth]uint64
}

// Locate finds the leaf of every key in keys and records it in the hint
// of the same index in at, which must be at least as long. The descents
// are latch-free and interleaved level by level. Each key gets one
// attempt: a key whose descent meets a node being written, fails a
// validation or outgrows the hint's path gets an empty hint, and no
// restart is counted. Under the three locking algorithms, whose descents
// take an R lock per level, every hint is left empty.
func (t *Tree) Locate(keys []int64, at []Hint) {
	at = at[:len(keys)]
	clear(at)
	if t.alg != OLC {
		return
	}
	root := t.root.Load()
	for i := range at {
		at[i].leaf = root
	}
	for level := root.level; level > 1; level-- {
		for i, key := range keys {
			h := &at[i]
			n := h.leaf
			for n != nil && n.level == level {
				next, v, covered, valid := n.olcRoute(key)
				if !valid || covered && h.depth == len(h.path) {
					n = nil
					break
				}
				if covered {
					h.path[h.depth], h.vers[h.depth] = n, v
					h.depth++
				} else {
					t.crossings.Add(1)
				}
				n = next
			}
			h.leaf = n
		}
	}
	for i, key := range keys {
		h := &at[i]
		if h.leaf != nil {
			h.leaf, h.ver, h.val, h.found = t.olcReadKey(h.leaf, key)
		}
		if h.leaf == nil {
			*h = Hint{}
		}
	}
}

// current reports whether h holds a leaf that no writer has changed since
// Locate read it (nor, if path is set, any node on its path), counting a
// stale hint when h held one that has changed.
func (t *Tree) current(h *Hint, path bool) bool {
	if h == nil || h.leaf == nil {
		return false
	}
	ok := h.leaf.mu.Validate(h.ver)
	for i := 0; ok && path && i < h.depth; i++ {
		ok = h.path[i].mu.Validate(h.vers[i])
	}
	if !ok {
		t.staleHints.Add(1)
	}
	return ok
}
