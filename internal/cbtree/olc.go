package cbtree

import (
	"math"
	"sync"
	"sync/atomic"

	"btreeperf/internal/lock"
)

// Optimistic lock-coupling (OLC): the framework's fourth algorithm.
//
// Writers are the Link-type writers (ops.go: one W lock at a time,
// half-splits repaired upward through right links), who enter every
// critical section through LockV, so the node's version word is odd
// exactly while it is being written; the node kernel then changes the
// node in place with atomic stores. A section that changed something
// leaves through UnlockV; one that changed nothing (passing through on
// the way right, deleting an absent key) leaves through UnlockClean and
// restarts no reader. What is OLC's own is in this file: how a leaf is
// found and how it is read.
//
// Readers descend with no locks at all: at each node they sample the
// version (ReadBegin), read the node's inline keys and children or
// values up to its count, its right link and its high key, all by atomic
// loads, and re-validate the version before trusting anything they read
// (this also validates the parent link: the child pointer came from a
// read the parent's version still vouches for). Until then a read may be
// torn by a concurrent write, but it cannot go wrong: a node's arrays
// never move or change size, and node pointers stay valid or are nil (a
// slot a split just cleared), and none is followed before its node's
// version validates. A failed validation
// restarts the descent from the root; after lock.OLCMaxAttempts failed
// descents the operation falls back to the locked Link-type path, whose
// R locks queue behind writers in the ordinary FCFS way. The version
// protocol is the restart process the analytical model in internal/core
// prices.

// stackDepth is the ancestor-stack room an update descent — of any
// protocol — carries on its own stack frame; deeper trees (cap 64:
// beyond 10²⁸ keys) spill to the heap.
const stackDepth = 16

// olcScanChunk is how many items a latch-free scan copies out of a leaf
// per validation. At the serving capacity (64) a leaf is one chunk, so
// each leaf is observed atomically, like the locked scan; a larger leaf
// is read in several validated pieces, resumed by key.
const olcScanChunk = 64

// noteRestart counts one failed version validation at the given level,
// streaming it into the level's probe when the sink understands
// latch-free telemetry.
func (t *Tree) noteRestart(level int) {
	t.readRestarts.Add(1)
	if probe := t.probe; probe != nil {
		if vp, ok := probe(level).(lock.VersionProbe); ok {
			vp.ReadRestart()
		}
	}
}

// noteFallback counts one descent that exhausted its retry budget.
// Fallbacks are charged to the leaf level: that is where the locked
// re-descent will queue.
func (t *Tree) noteFallback() {
	t.readFallbacks.Add(1)
	if probe := t.probe; probe != nil {
		if vp, ok := probe(1).(lock.VersionProbe); ok {
			vp.ReadFallback()
		}
	}
}

// olcCovers is covers for a latch-free reader: it also returns the right
// sibling it read. Meaningful only if n's version validates afterwards.
func (n *node) olcCovers(key int64) (*node, bool) {
	r := n.right.Load()
	return r, r == nil || key < n.high.Load()
}

// olcSearch is the latch-free point lookup with bounded retry. Given a
// hint (see Locate) whose leaf still has the version it was read at, it
// answers from the hint: the leaf has not changed since, so what the hint
// holds is what the leaf holds at this validation, where the lookup
// linearizes. Otherwise it counts the hint stale and searches from the
// root.
func (t *Tree) olcSearch(key int64, h *Hint) (uint64, bool) {
	if t.current(h, false) {
		return h.val, h.found
	}
	for attempt := 0; attempt < lock.OLCMaxAttempts; attempt++ {
		if n, _ := t.olcTryDescend(key, nil); n != nil {
			if n, _, v, ok := t.olcReadKey(n, key); n != nil {
				return v, ok
			}
			t.noteRestart(1)
		}
	}
	t.noteFallback()
	// The locked fallback must be right-link aware: a lock-coupled
	// descent with no moveRight would miss keys mid-half-split, so the
	// Link-type locked read is the correct pessimistic twin.
	return t.lockedSearch(key)
}

// olcReadKey reads what the leaf covering key holds for it, starting
// from leaf n and following right links: the covering leaf, the version
// its read validated against, and the value and presence of key. It
// returns a nil leaf when a validation failed; the caller counts the
// restart.
func (t *Tree) olcReadKey(n *node, key int64) (leaf *node, ver, val uint64, ok bool) {
	for {
		v, stable := n.mu.ReadBegin()
		if !stable {
			return nil, 0, 0, false
		}
		right, covered := n.olcCovers(key)
		if covered {
			keys, c := n.keys(), n.slots()
			i := searchAtomic(keys[:c], key)
			if ok = i < c && atomic.LoadInt64(&keys[i]) == key; ok {
				val = atomic.LoadUint64(&n.vals()[i])
			}
		}
		if !n.mu.Validate(v) {
			return nil, 0, 0, false
		}
		if covered {
			return n, v, val, ok
		}
		t.crossings.Add(1)
		n = right
	}
}

// olcRoute makes one latch-free step from inner node n toward key: the
// child n routes key to, or (covered false) n's right sibling when key
// lies beyond n's high key, and the version the read validated against.
// valid is false when it did not validate; then next means nothing.
func (n *node) olcRoute(key int64) (next *node, v uint64, covered, valid bool) {
	v, stable := n.mu.ReadBegin()
	if !stable {
		return nil, 0, false, false
	}
	next, covered = n.olcCovers(key)
	if covered {
		routers := n.keys()[1:n.slots()]
		i := len(routers) // key MaxInt64 routes past every router
		if key < math.MaxInt64 {
			i = searchAtomic(routers, key+1) // blink.Route's lower bound
		}
		next = n.kids()[i].Load()
	}
	return next, v, covered, n.mu.Validate(v)
}

// olcTryDescend makes one latch-free attempt to reach the leaf level on
// key's path, appending the ancestors it routed through to stack when
// stack is non-nil. It returns a nil node, having counted the restart,
// when a validation failed.
func (t *Tree) olcTryDescend(key int64, stack []*node) (*node, []*node) {
	n := t.root.Load()
	for n.level > 1 {
		next, _, covered, valid := n.olcRoute(key)
		if !valid {
			t.noteRestart(int(n.level))
			return nil, stack
		}
		if !covered {
			t.crossings.Add(1)
		} else if stack != nil {
			stack = append(stack, n)
		}
		n = next
	}
	return n, stack
}

// olcDescendLeaf finds the (unlocked) leaf candidate for key latch-free,
// collecting the ancestor stack for split repair into stack when it is
// non-nil, falling back to the locked descent after lock.OLCMaxAttempts
// failed attempts.
func (t *Tree) olcDescendLeaf(key int64, stack []*node) (*node, []*node) {
	for attempt := 0; attempt < lock.OLCMaxAttempts; attempt++ {
		if n, path := t.olcTryDescend(key, stack[:0]); n != nil {
			return n, path
		}
	}
	t.noteFallback()
	return t.linkDescend(1, key, stack)
}

// olcChunk is the private copy a latch-free scan validates one leaf read
// into and hands to the RangeLeaves callback. It is pooled, not a local:
// slices passed to a caller-supplied function escape, and a scan must
// not allocate.
type olcChunk struct {
	keys [olcScanChunk]int64
	vals [olcScanChunk]uint64
}

var olcChunks = sync.Pool{New: func() any { return new(olcChunk) }}

// olcReadLeaf copies the items of leaf n with from <= key <= hi into buf,
// in order and with the gaps skipped (one load per slot: a slot whose key
// is the one just taken is a later copy of it), until buf is full, and
// returns how many it copied, whether the leaf holds more within the
// bound beyond them, and the leaf's right sibling — nil once the leaf
// held a key past hi, where the walk ends — all as of one instant: a
// validated latch-free read after bounded per-node retries, else
// (counting a fallback) a read under the node's R lock. The leaf-chain
// walk uses this instead of restarting from the root, which would lose
// its position.
func (t *Tree) olcReadLeaf(n *node, from, hi int64, buf *olcChunk) (got int, more bool, right *node) {
	for attempt := 0; ; attempt++ {
		locked := attempt == lock.OLCMaxAttempts
		var v uint64
		if locked {
			t.noteFallback()
			n.mu.RLock()
		} else {
			var stable bool
			if v, stable = n.mu.ReadBegin(); !stable {
				t.noteRestart(int(n.level))
				continue
			}
		}
		keys, c := n.keys(), n.slots()
		i := searchAtomic(keys[:c], from)
		past := false
		for got = 0; i < c; i++ {
			k := atomic.LoadInt64(&keys[i])
			if got > 0 && k == buf.keys[got-1] {
				continue // a later copy of the item just taken
			}
			if past = k > hi; past || got == olcScanChunk {
				break
			}
			buf.keys[got], buf.vals[got] = k, atomic.LoadUint64(&n.vals()[i])
			got++
		}
		more, right = i < c && !past, nil
		if !past {
			right = n.right.Load()
		}
		if locked {
			n.mu.RUnlock()
			return
		}
		if n.mu.Validate(v) {
			return
		}
		t.noteRestart(int(n.level))
	}
}

// olcRangeLeaves is the latch-free leaf walk: descend to the leaf
// covering lo, then hand out validated leaf reads, chaining through
// right pointers.
func (t *Tree) olcRangeLeaves(lo, hi int64, fn func(keys []int64, vals []uint64) bool) {
	buf := olcChunks.Get().(*olcChunk)
	defer olcChunks.Put(buf)
	n, _ := t.olcDescendLeaf(lo, nil)
	for n != nil {
		got, more, right := t.olcReadLeaf(n, lo, hi, buf)
		if got > 0 && !fn(buf.keys[:got], buf.vals[:got]) {
			return
		}
		if got > 0 && (more || right != nil) {
			// Resume past the last item handed out: a lend may since have
			// moved it into the right neighbour. A larger key or a high key
			// lies above it, so this cannot overflow.
			lo = buf.keys[got-1] + 1
		}
		if !more {
			n = right
		}
	}
}
