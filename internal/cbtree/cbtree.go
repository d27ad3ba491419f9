// Package cbtree is a goroutine-safe concurrent B⁺-tree implementing the
// three concurrency-control algorithms analyzed by Johnson & Shasha
// (PODS 1990) on real sync primitives, plus the framework's natural
// fourth algorithm:
//
//   - LockCoupling — Bayer/Schkolnick naive lock coupling: updates descend
//     with exclusive locks, releasing ancestors whenever the child cannot
//     split; searches descend with shared-lock coupling.
//   - Optimistic — optimistic descent: updates descend with shared locks
//     and lock only the leaf exclusively, restarting with the
//     lock-coupling protocol when the leaf might split.
//   - LinkType — Lehman–Yao: right links and high keys let every operation
//     hold at most one lock at a time; splits are half-splits repaired
//     upward.
//   - OLC — optimistic lock-coupling: writers are the Link-type writers,
//     readers descend latch-free through the same storage and trust what
//     they read only once the node's version validates, restarting on
//     conflict with a bounded-retry fallback to the locked path (see
//     olc.go).
//
// The four differ only in their locking protocol (ops.go, olc.go). Under
// it is one node kernel — one node layout, one allocation per node with
// its keys and values or children inline, one way to put, remove, lend,
// split and route (see node) — so they are directly comparable (see the
// benchmarks at the repository root, the modern analogue of the paper's
// Figure 12) and a sequential stream builds the same tree under all of
// them. Every node is written in place under its W lock. The kernel asks
// which algorithm it serves only to choose how a leaf is written: under
// OLC it keeps its free slots as gaps between its items and takes atomic
// stores, under the other three it stays dense and takes plain ones.
// Inner nodes take atomic stores under all four.
//
// Restructuring is merge-at-empty in the lazy sense the paper adopts for
// the Link-type algorithm: nodes emptied by deletes remain in place and
// are reclaimed only by Compact (which requires quiescence). With more
// inserts than deletes — the regime the paper's analysis covers — empty
// nodes are vanishingly rare ([10]).
package cbtree

import (
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"unsafe"

	"btreeperf/internal/blink"
	"btreeperf/internal/lock"
)

// Algorithm selects the concurrency-control protocol.
type Algorithm int

const (
	// LockCoupling is the paper's Naive Lock-coupling algorithm.
	LockCoupling Algorithm = iota
	// Optimistic is the paper's Optimistic Descent algorithm.
	Optimistic
	// LinkType is the paper's Link-type (Lehman–Yao) algorithm.
	LinkType
	// OLC is optimistic lock-coupling: version-validated latch-free
	// reads over Link-type writes.
	OLC
)

func (a Algorithm) String() string {
	switch a {
	case LockCoupling:
		return "lock-coupling"
	case Optimistic:
		return "optimistic"
	case LinkType:
		return "link-type"
	case OLC:
		return "olc"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Stats counts structural and protocol events since the tree was created.
type Stats struct {
	Splits        int64 // node splits
	Lends         int64 // full leaves that lent to their right neighbour instead
	Restarts      int64 // Optimistic second descents
	Crossings     int64 // LinkType/OLC right-link follows
	ReadRestarts  int64 // OLC failed version validations
	ReadFallbacks int64 // OLC descents that fell back to locking
	StaleHints    int64 // OLC Locate hints found changed when used
}

// node is a B⁺-tree node guarded by its own FCFS reader/writer lock
// (versioned, for OLC's latch-free readers). All fields after mu are
// protected by mu, except that the pointer identity of a node never
// changes and nodes are never freed (the GC reclaims unreachable ones),
// so holding a stale pointer is always safe — the Link-type protocol
// then recovers via right links. A node has a high key exactly when it
// has a right sibling.
//
// A node is one allocation: this 120-byte header, then cap keys, then
// cap values (a leaf) or children (an inner node), inline, in a type
// built per tree (nodeType) so the GC knows which words are pointers. At
// cap 64 it fills the allocator's 1,152-byte class exactly (TestNodeSize).
// The arrays never move or change size, and every word a latch-free reader
// loads is written in place under the W lock by an atomic store, as
// lock.VersionLock asks. There is one layout, whatever the algorithm:
//
//   - a leaf's slots [0, end) hold non-decreasing keys, and fill packs
//     end with the item count into one word. A slot whose key equals its
//     right neighbour's is a gap, a copy of that neighbour's item, so a
//     search over [0, end) lands on an item's first copy. Only OLC's
//     leaves keep gaps (gapInsert, gapRemove, lay), with atomic stores;
//     the three locking algorithms keep a leaf dense and shift with copy;
//   - an inner node's entries (key, child) fill slots [0, count), count
//     in both halves of fill. Child i routes from keys[i] up; keys[0] is
//     never routed by and holds the separator the node was split off
//     under, so the keys ascend strictly. An entry is added in place
//     (putEntry), with atomic stores under every algorithm;
//   - a full leaf first lends half its surplus to a roomy right neighbour
//     under the same parent, lowering the separator between them (lend);
//   - a full node half-splits around the new item into a sibling nobody
//     can reach yet (splitLeaf, splitInner), and the sibling is complete
//     before its left neighbour's right link, an atomic, leads to it.
//
// Lock holders read everything plainly: the lock orders them with the
// writers.
type node struct {
	mu    lock.VersionLock
	level int32
	cap   int32         // slots in each inline array
	fill  atomic.Uint64 // item count << 32 | slots in use
	right atomic.Pointer[node]
	high  atomic.Int64
}

// nodeType is the type of a node of capacity cap: header, keys, tails.
func nodeType(cap int, tail reflect.Type) reflect.Type {
	return reflect.StructOf([]reflect.StructField{
		{Name: "Header", Type: reflect.TypeFor[node]()},
		{Name: "Keys", Type: reflect.ArrayOf(cap, reflect.TypeFor[int64]())},
		{Name: "Tail", Type: reflect.ArrayOf(cap, tail)},
	})
}

// inline returns the node's inline array i: 0 its keys, 1 a leaf's vals
// or an inner node's kids, which are the same words.
func inline[T any](n *node, i uintptr) []T {
	return unsafe.Slice((*T)(unsafe.Add(unsafe.Pointer(n), unsafe.Sizeof(node{})+i*8*uintptr(n.cap))), n.cap)
}

func (n *node) keys() []int64                { return inline[int64](n, 0) }
func (n *node) vals() []uint64               { return inline[uint64](n, 1) }
func (n *node) kids() []atomic.Pointer[node] { return inline[atomic.Pointer[node]](n, 1) }

func (n *node) isLeaf() bool { return n.level == 1 }

// slots returns how many of a node's slots are in use, gaps included.
func (n *node) slots() int { return int(uint32(n.fill.Load())) }

// setFill records a node's slots in use and its item count in one store.
func (n *node) setFill(slots, items int) { n.fill.Store(uint64(items)<<32 | uint64(slots)) }

// leaf returns a leaf's slots in use: its items in ascending order, each
// preceded by its gaps, if it keeps any. Caller must hold n.mu.
func (n *node) leaf() ([]int64, []uint64) {
	s := n.slots()
	return n.keys()[:s], n.vals()[:s]
}

// items is the paper's occupancy: keys for leaves, children for internal
// nodes. Caller must hold n.mu.
func (n *node) items() int { return int(n.fill.Load() >> 32) }

// covers reports whether key belongs at or below this node (Link-type
// high-key test). Caller must hold n.mu.
func (n *node) covers(key int64) bool { return n.right.Load() == nil || key < n.high.Load() }

// childIndex returns the slot of the child routing key. Caller holds n.mu.
func (n *node) childIndex(key int64) int { return blink.Route(n.keys()[1:n.items()], key) }

// child returns the child routing key. Caller must hold n.mu.
func (n *node) child(key int64) *node { return n.kids()[n.childIndex(key)].Load() }

// searchAtomic is blink.LowerBound for a latch-free reader: the same
// halving down to blink.ScanRun keys and forward scan, every load
// atomic. The result means nothing until the node's version validates.
func searchAtomic(keys []int64, key int64) int {
	lo, hi := 0, len(keys)
	for hi-lo > blink.ScanRun {
		mid := (lo + hi) >> 1
		if atomic.LoadInt64(&keys[mid]) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	run := keys[lo:hi]
	for i := range run {
		if atomic.LoadInt64(&run[i]) >= key {
			return lo + i
		}
	}
	return hi
}

// Tree is a concurrent B⁺-tree. Create one with New. All methods are safe
// for concurrent use by any number of goroutines.
type Tree struct {
	alg  Algorithm
	cap  int
	root atomic.Pointer[node]
	size atomic.Int64

	types [3]reflect.Type // nodeType at cap: [1] a leaf's, [2] an inner node's

	splits        atomic.Int64
	lends         atomic.Int64
	restarts      atomic.Int64
	crossings     atomic.Int64
	readRestarts  atomic.Int64 // OLC failed version validations
	readFallbacks atomic.Int64 // OLC descents that fell back to locking
	staleHints    atomic.Int64 // OLC Locate hints found changed when used

	// probe, when set (see Instrument), supplies the telemetry sink every
	// newly created node's lock reports into, keyed by tree level. Written
	// only while quiescent, read by concurrent splitters.
	probe func(level int) lock.Probe
}

// New creates an empty tree whose nodes hold at most cap items (cap >= 3)
// under the given concurrency-control algorithm.
func New(cap int, alg Algorithm) *Tree {
	if cap < 3 {
		panic(fmt.Sprintf("cbtree: capacity %d too small (need >= 3)", cap))
	}
	if alg != LockCoupling && alg != Optimistic && alg != LinkType && alg != OLC {
		panic(fmt.Sprintf("cbtree: unknown algorithm %v", alg))
	}
	t := &Tree{alg: alg, cap: cap}
	t.types[1], t.types[2] = nodeType(cap, reflect.TypeFor[uint64]()), nodeType(cap, reflect.TypeFor[*node]())
	t.root.Store(t.newNode(1))
	return t
}

// newNode returns an empty node for the given level, one allocation with
// its storage inline, wired to the level's telemetry sink.
func (t *Tree) newNode(level int) *node {
	n := (*node)(reflect.New(t.types[min(level, 2)]).UnsafePointer())
	n.level, n.cap = int32(level), int32(t.cap)
	if t.probe != nil {
		n.mu.SetProbe(t.probe(level))
	}
	return n
}

// Cap returns the node capacity.
func (t *Tree) Cap() int { return t.cap }

// Algorithm returns the concurrency-control protocol in use.
func (t *Tree) Algorithm() Algorithm { return t.alg }

// Len returns the number of keys in the tree.
func (t *Tree) Len() int { return int(t.size.Load()) }

// Stats returns the event counters.
func (t *Tree) Stats() Stats {
	return Stats{
		Splits:        t.splits.Load(),
		Lends:         t.lends.Load(),
		Restarts:      t.restarts.Load(),
		Crossings:     t.crossings.Load(),
		ReadRestarts:  t.readRestarts.Load(),
		ReadFallbacks: t.readFallbacks.Load(),
		StaleHints:    t.staleHints.Load(),
	}
}

// Height returns the current number of levels. It is exact when quiescent
// and approximate under concurrent root splits.
func (t *Tree) Height() int { return int(t.root.Load().level) }

// Instrument attaches per-level lock telemetry: sinkFor(level) returns the
// probe that every node lock at that level reports into (level 1 is the
// leaf level, the root has level == Height). Existing nodes are wired
// immediately and nodes created by later splits inherit the sink, so the
// whole tree stays covered as it grows.
//
// Instrument requires quiescence: no operations may be in flight while it
// runs (call it right after building the tree, before serving). Passing
// nil detaches future nodes but leaves existing nodes wired.
func (t *Tree) Instrument(sinkFor func(level int) lock.Probe) {
	t.probe = sinkFor
	if sinkFor == nil {
		return
	}
	t.instrumentAll(t.root.Load(), sinkFor)
}

// instrumentAll walks the quiescent tree attaching sinks. Every node is a
// child of some parent (right-linked siblings included, once split repair
// completes), so child recursion reaches all of them.
func (t *Tree) instrumentAll(n *node, sinkFor func(level int) lock.Probe) {
	n.mu.SetProbe(sinkFor(int(n.level)))
	for i := 0; !n.isLeaf() && i < n.items(); i++ {
		t.instrumentAll(n.kids()[i].Load(), sinkFor)
	}
}

// insertSafe reports whether an insert cannot split n. Caller holds n.mu.
func (t *Tree) insertSafe(n *node) bool { return n.items() < t.cap }

// lockRoot locks the current root with the class chosen by classOf,
// retrying if the root pointer moved while we waited.
func (t *Tree) lockRoot(classOf func(*node) bool) *node {
	for {
		r := t.root.Load()
		write := classOf(r)
		r.lockAs(write)
		if t.root.Load() == r {
			return r
		}
		r.unlockAs(write)
	}
}

// lockAs takes n.mu exclusively (write) or shared; unlockAs gives back
// what lockAs took.
func (n *node) lockAs(write bool) {
	if write {
		n.mu.Lock()
	} else {
		n.mu.RLock()
	}
}

func (n *node) unlockAs(write bool) {
	if write {
		n.mu.Unlock()
	} else {
		n.mu.RUnlock()
	}
}

func alwaysRead(*node) bool    { return false }
func alwaysWrite(*node) bool   { return true }
func writeIfLeaf(n *node) bool { return n.isLeaf() }

// ---------------------------------------------------------------------------
// The node kernel: what every protocol does to a node once it holds it.

// leafPut stores key→val in leaf n, reporting whether key is new. Caller
// holds n.mu exclusively and n covers key. A new key that finds n full is
// not stored but reported full: the caller's protocol then makes room by
// a lend to n's right neighbour (lend) or a half-split (splitLeaf), either
// of which puts the item in.
func (t *Tree) leafPut(n *node, key int64, val uint64) (fresh, full bool) {
	latchFree := t.alg == OLC
	keys, vals := n.leaf()
	i, ok := blink.Find(keys, key)
	if ok {
		if latchFree {
			// Every copy: a reader's search lands on the first one.
			for ; i < len(keys) && keys[i] == key; i++ {
				atomic.StoreUint64(&vals[i], val)
			}
		} else {
			vals[i] = val
		}
		return false, false
	}
	t.size.Add(1)
	switch {
	case n.items() == t.cap:
		return true, true
	case latchFree:
		n.gapInsert(i, key, val)
	default:
		n.insertSlot(i, key, val)
	}
	return true, false
}

// leafRemove deletes key from a leaf, reporting whether it was there.
// Caller holds n.mu exclusively.
func (t *Tree) leafRemove(n *node, key int64) bool {
	keys, vals := n.leaf()
	i, ok := blink.Find(keys, key)
	if !ok {
		return false
	}
	if t.alg == OLC {
		n.gapRemove(i)
	} else {
		copy(keys[i:], keys[i+1:])
		copy(vals[i:], vals[i+1:])
		n.setFill(len(keys)-1, len(keys)-1)
	}
	t.size.Add(-1)
	return true
}

// insertSlot puts (key, val) into slot i of a dense leaf with room,
// shifting the items from i up by one. Caller holds n.mu exclusively.
func (n *node) insertSlot(i int, key int64, val uint64) {
	c := n.items()
	keys, vals := n.keys()[:c+1], n.vals()[:c+1]
	copy(keys[i+1:], keys[i:])
	copy(vals[i+1:], vals[i:])
	keys[i], vals[i] = key, val
	n.setFill(c+1, c+1)
}

// gapInsert puts (key, val), which belongs before slot i, into an OLC
// leaf with room. It takes the nearest gap, or the free tail, and moves
// the items between it and slot i one slot toward it: a gap k slots to
// the right of i costs k+1 writes, and so does one k+2 slots to its left
// (the new item then lands in slot i-1). Caller holds n.mu exclusively;
// every store is atomic, because latch-free readers may be loading the
// same slots.
func (n *node) gapInsert(i int, key int64, val uint64) {
	keys, vals := n.keys(), n.vals()
	end := n.slots()
	for d := 0; ; d++ {
		if j := i + d; j < end-1 && keys[j] == keys[j+1] || j == end && end < len(keys) {
			if j == end {
				end++
			}
			for ; j > i; j-- {
				atomic.StoreInt64(&keys[j], keys[j-1])
				atomic.StoreUint64(&vals[j], vals[j-1])
			}
			break
		}
		if j := i - 2 - d; j >= 0 && keys[j] == keys[j+1] {
			for j++; j < i-1; j++ {
				atomic.StoreInt64(&keys[j], keys[j+1])
				atomic.StoreUint64(&vals[j], vals[j+1])
			}
			i--
			break
		}
		if i+d > end && i-2-d < 0 {
			panic("cbtree: leaf with room has neither a gap nor a free tail")
		}
	}
	atomic.StoreInt64(&keys[i], key)
	atomic.StoreUint64(&vals[i], val)
	n.setFill(end, n.items()+1)
}

// gapRemove deletes the item whose first copy is slot i from an OLC leaf:
// its slots become copies of its right neighbour, or, when it is the last
// item, free tail. Caller holds n.mu exclusively; stores are atomic.
func (n *node) gapRemove(i int) {
	keys, vals := n.leaf()
	r := i + 1
	for r < len(keys) && keys[r] == keys[i] {
		r++
	}
	if r == len(keys) {
		n.setFill(i, n.items()-1)
		return
	}
	for ; i < r; i++ {
		atomic.StoreInt64(&keys[i], keys[r])
		atomic.StoreUint64(&vals[i], vals[r])
	}
	n.setFill(len(keys), n.items()-1)
}

// lay writes a run of items into leaf n, replacing what it held: the items
// of keys and vals in order, with (key, val) inserted before item at when
// at ≥ 0. latchFree lays them out the OLC way, evenly over all cap slots,
// each item after its gaps, with atomic stores; otherwise they go one per
// slot from slot 0 with plain ones. keys and vals may be the front of n's
// own storage: an item never moves left, and items are written from the
// last.
func (n *node) lay(keys []int64, vals []uint64, at int, key int64, val uint64, latchFree bool) {
	items := len(keys)
	if at >= 0 {
		items++
	}
	w := items
	if latchFree && items > 0 {
		w = int(n.cap)
	}
	nk, nv := n.keys(), n.vals()
	for x, end := items-1, w; x >= 0; x-- {
		k, v := key, val
		if at < 0 || x < at {
			k, v = keys[x], vals[x]
		} else if x > at {
			k, v = keys[x-1], vals[x-1]
		}
		start := x // item x's slots are [start, end): [x·w/items, (x+1)·w/items)
		if w != items {
			start = x * w / items
		}
		for s := start; s < end; s++ {
			if latchFree {
				atomic.StoreInt64(&nk[s], k)
				atomic.StoreUint64(&nv[s], v)
			} else {
				nk[s], nv[s] = k, v
			}
		}
		end = start
	}
	n.setFill(w, items)
}

// prepend makes leaf n dense with the items of keys and vals in front of
// its own: its gaps squeezed out front to back (an item only moves left),
// its items shifted right from the last, then the new ones written before
// them. keys and vals are another node's storage, and n has room for
// them. Caller holds n.mu exclusively; stores are atomic when latchFree.
func (n *node) prepend(keys []int64, vals []uint64, latchFree bool) {
	nk, nv := n.keys(), n.vals()
	put := func(s int, k int64, v uint64) {
		if latchFree {
			atomic.StoreInt64(&nk[s], k)
			atomic.StoreUint64(&nv[s], v)
		} else {
			nk[s], nv[s] = k, v
		}
	}
	c, slots := n.items(), n.slots()
	if c < slots {
		c = 0
		for s := range slots {
			if s+1 == slots || nk[s] != nk[s+1] {
				put(c, nk[s], nv[s])
				c++
			}
		}
	}
	for s := c - 1; s >= 0; s-- {
		put(s+len(keys), nk[s], nv[s])
	}
	for s, k := range keys {
		put(s, k, vals[s])
	}
	n.setFill(c+len(keys), c+len(keys))
}

// spread puts the new item (key, val) into the full leaf n by laying the
// cap+1 items of n and the new one, then the items of r, its right
// neighbour, half and half over the two: n keeps the lower ⌈total/2⌉, r
// takes the rest — the halves an insert followed by a halving would make,
// without the slot of overflow. A full leaf has no gaps, so its items are
// its slots; under OLC each leaf's items are spread over its cap slots
// (lay). It returns r's first key, the new separator. Caller holds n.mu
// and r.mu exclusively (or owns r, not yet reachable); everything a
// latch-free reader can see changes by atomic stores.
func (t *Tree) spread(n, r *node, key int64, val uint64) int64 {
	latchFree := t.alg == OLC
	keys, vals := n.keys(), n.vals()
	i, _ := blink.Find(keys, key)
	m := (t.cap + 2 + r.items()) / 2 // what n keeps
	// n's first item to move, and the new item's place in n or in r (-1:
	// not that leaf's).
	from, nAt, rAt := m, -1, i-m
	if i < m {
		from, nAt, rAt = m-1, i, -1
	}
	r.prepend(keys[from:], vals[from:], latchFree)
	if rAt >= 0 || latchFree {
		rk, rv := r.leaf()
		r.lay(rk, rv, rAt, key, val, latchFree)
	}
	n.lay(keys[:from], vals[:from], nAt, key, val, latchFree)
	return r.keys()[0]
}

// splitLeaf puts (key, val) into the full leaf n by a Lehman–Yao
// half-split around it: spread over n and a new right sibling. The
// sibling is complete before n's right link makes it reachable. Caller
// holds n.mu exclusively.
func (t *Tree) splitLeaf(n *node, key int64, val uint64) (*node, int64) {
	t.splits.Add(1)
	sib := t.newNode(1)
	sep := t.spread(n, sib, key, val)
	linkRight(n, sib, sep)
	return sib, sep
}

// lendee returns the right neighbour of the full leaf n if, at a glance
// without its lock, it has room to take a lend (roomy), else nil. Caller
// holds n.mu.
func (t *Tree) lendee(n *node) *node {
	if r := n.right.Load(); r != nil && t.roomy(r) {
		return r
	}
	return nil
}

// roomy reports whether leaf r has room to take a lend: at least an
// eighth of its slots free, and two. With less, r would be full again
// within a few inserts and the lend would only put off a split.
func (t *Tree) roomy(r *node) bool { return t.cap-r.items() >= max(t.cap/8, 2) }

// lend puts the new item (key, val) into the full leaf n by lending half
// of its surplus to r, n's right neighbour, if r is still roomy and p
// holds n and r side by side: the items are spread as a split spreads
// them, and the separator between the two — n's high key and p's router
// for r — falls to r's new first key. Keys only move right, so a
// descent that read the old separator still finds its key by moving
// right. It reports whether it lent. Caller holds p, n and r exclusively.
func (t *Tree) lend(p, n, r *node, key int64, val uint64) bool {
	if !t.roomy(r) || !p.covers(key) {
		return false
	}
	j := p.childIndex(key) + 1
	if kids := p.kids(); j == p.items() || kids[j-1].Load() != n || kids[j].Load() != r {
		return false
	}
	t.lends.Add(1)
	sep := t.spread(n, r, key, val)
	n.high.Store(sep)
	atomic.StoreInt64(&p.keys()[j], sep)
	return true
}

// linkRight makes the finished node sib n's right sibling under
// separator sep: sib takes over n's high key and right link, and only
// then does n's right link lead to it.
func linkRight(n, sib *node, sep int64) {
	sib.high.Store(n.high.Load())
	sib.right.Store(n.right.Load())
	n.high.Store(sep)
	n.right.Store(sib)
}

// addChild installs the entry (sep, child) in inner node n, which covers
// sep and whose lock the caller holds exclusively. A full n is split
// instead (splitInner): the sibling and separator come back for the
// caller's protocol to install one level up.
func (t *Tree) addChild(n *node, sep int64, child *node) (*node, int64) {
	i := n.childIndex(sep) + 1
	if n.items() == t.cap {
		return t.splitInner(n, i, sep, child)
	}
	n.putEntry(i, sep, child)
	return nil, 0
}

// putEntry writes the entry (key, child) into slot i of inner node n,
// which has room, shifting the entries from slot i up one slot right:
// from the top, so every slot below the count a latch-free reader read
// holds a child throughout, and the count last. Caller holds n.mu
// exclusively, or owns n because it is not yet reachable.
func (n *node) putEntry(i int, key int64, child *node) {
	c := n.items()
	keys, kids := n.keys(), n.kids()
	for j := c; j > i; j-- {
		atomic.StoreInt64(&keys[j], keys[j-1])
		kids[j].Store(kids[j-1].Load())
	}
	atomic.StoreInt64(&keys[i], key)
	kids[i].Store(child)
	n.setFill(c+1, c+1)
}

// splitInner puts the entry (sep, child), which belongs at slot i, into
// the full inner node n as splitLeaf puts an item: of the cap+1 entries
// the lower ⌈(cap+1)/2⌉ stay, the rest go to a new right sibling, whose
// first key moves up. The slots n gives away are cleared, so the GC
// keeps nothing through them. Caller holds n.mu exclusively.
func (t *Tree) splitInner(n *node, i int, sep int64, child *node) (*node, int64) {
	t.splits.Add(1)
	m := (t.cap + 2) / 2 // what n keeps
	from := m            // n's first entry to move
	if i < m {
		from--
	}
	sib := t.newNode(int(n.level))
	keys, kids := n.keys(), n.kids()
	for j := from; j < t.cap; j++ {
		sib.putEntry(j-from, keys[j], kids[j].Load())
		kids[j].Store(nil)
	}
	n.setFill(from, from)
	if i < m {
		n.putEntry(i, sep, child)
	} else {
		sib.putEntry(i-m, sep, child)
	}
	up := sib.keys()[0]
	linkRight(n, sib, up)
	return sib, up
}

// growRoot replaces the root after splitting it. Caller holds old.mu
// exclusively and has verified old is the current root. Latch-free
// readers may reach the new root the instant the CAS lands.
func (t *Tree) growRoot(old *node, sep int64, sib *node) {
	r := t.newNode(int(old.level) + 1)
	r.putEntry(0, math.MinInt64, old)
	r.putEntry(1, sep, sib)
	if !t.root.CompareAndSwap(old, r) {
		panic("cbtree: concurrent root replacement")
	}
}
