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
//   - OLC — optimistic lock-coupling: writers follow the Link-type
//     protocol under seqlock-style versioned W locks and change nodes in
//     place, readers descend latch-free through the same storage and
//     trust what they read only once the node's version validates,
//     restarting on conflict with a bounded-retry fallback to the locked
//     path (see olc.go).
//
// All algorithms run against the same node type, so they are directly
// comparable (see the benchmarks at the repository root, the modern
// analogue of the paper's Figure 12); OLC only constrains how a node's
// storage is allocated and written (see node).
//
// Restructuring is merge-at-empty in the lazy sense the paper adopts for
// the Link-type algorithm: nodes emptied by deletes remain in place and
// are reclaimed only by Compact (which requires quiescence). With more
// inserts than deletes — the regime the paper's analysis covers — empty
// nodes are vanishingly rare ([10]).
package cbtree

import (
	"fmt"
	"sync/atomic"

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
	Restarts      int64 // Optimistic second descents
	Crossings     int64 // LinkType/OLC right-link follows
	ReadRestarts  int64 // OLC failed version validations
	ReadFallbacks int64 // OLC descents that fell back to locking
}

// node is a B⁺-tree node guarded by its own FCFS reader/writer lock
// (versioned, for OLC's latch-free readers). All fields after mu are
// protected by mu, except that the pointer identity of a node never
// changes and nodes are never freed (the GC reclaims unreachable ones),
// so holding a stale pointer is always safe — the Link-type protocol
// then recovers via right links. A node has a high key exactly when it
// has a right sibling.
//
// Under the three lock-based algorithms keys, vals and children hold
// exactly the node's items (len = count) and grow by append.
//
// Under OLC the same fields are also read by latch-free readers, between
// ReadBegin and Validate, while a writer may be at work, so the layout
// obeys lock.VersionLock's contract:
//
//   - a leaf (fixed == true) gets keys and vals once, at cap+1 slots —
//     room for the overflow a split resolves — and the two slice
//     headers never change again, so no index a reader computes can
//     leave the storage. cnt is the item count; writers shift items in
//     place with atomic stores, readers use atomic loads;
//   - an inner node's keys and children are copy-on-write: a writer
//     never stores into the arrays, it installs fresh slices and
//     publishes the pair through img, the only way latch-free readers
//     reach them. Inner nodes change once per child split, so this is
//     the cheap side to keep immutable;
//   - right and high are atomic for every algorithm (a plain load on the
//     platforms this runs on; they are stored only by splits).
//
// Lock holders read everything plainly: the lock orders them with the
// writers.
type node struct {
	mu       lock.VersionLock
	level    int
	cnt      atomic.Int32 // OLC leaf: items in keys/vals
	fixed    bool         // OLC leaf: keys/vals have constant len cap+1
	keys     []int64
	vals     []uint64
	children []*node
	right    atomic.Pointer[node]
	high     atomic.Int64
	img      atomic.Pointer[routing] // OLC inner node: {keys, children}
}

// routing is what a latch-free reader sees of an OLC inner node: the
// node's current keys and children slices, immutable once published.
type routing struct {
	keys     []int64
	children []*node
}

// setRouting installs an OLC inner node's routing arrays. Caller holds
// n.mu exclusively, or owns n because it is not yet reachable.
func (n *node) setRouting(keys []int64, children []*node) {
	n.keys, n.children = keys, children
	n.img.Store(&routing{keys: keys, children: children})
}

func (n *node) isLeaf() bool { return n.level == 1 }

// leaf returns the keys and values a leaf holds. Caller must hold n.mu.
func (n *node) leaf() ([]int64, []uint64) {
	if n.fixed {
		c := n.cnt.Load()
		return n.keys[:c], n.vals[:c]
	}
	return n.keys, n.vals
}

// items is the paper's occupancy: keys for leaves, children for internal
// nodes. Caller must hold n.mu.
func (n *node) items() int {
	if n.fixed {
		return int(n.cnt.Load())
	}
	if n.isLeaf() {
		return len(n.keys)
	}
	return len(n.children)
}

// covers reports whether key belongs at or below this node (Link-type
// high-key test). Caller must hold n.mu.
func (n *node) covers(key int64) bool { return n.right.Load() == nil || key < n.high.Load() }

// linearScanMax is the node occupancy below which key search scans
// sequentially: for a handful of keys a branch-predictable linear scan
// beats binary search's data-dependent probes. From linearScanMax up —
// the serving default capacity 64 included — search is binary. The two
// implementations are cross-checked against each other in search_test.go.
const linearScanMax = 16

// route returns the child slot routing key among separators keys.
func route(keys []int64, key int64) int {
	if len(keys) < linearScanMax {
		return routeLinear(keys, key)
	}
	return routeBinary(keys, key)
}

// childIndex returns the child slot routing key. Caller must hold n.mu.
func (n *node) childIndex(key int64) int { return route(n.keys, key) }

// keyIndex locates key in a leaf, returning its slot (or the slot it
// would occupy) and whether it is present. Caller must hold n.mu.
func (n *node) keyIndex(key int64) (int, bool) {
	keys, _ := n.leaf()
	var lo int
	if len(keys) < linearScanMax {
		lo = lowerBoundLinear(keys, key)
	} else {
		lo = lowerBoundBinary(keys, key)
	}
	return lo, lo < len(keys) && keys[lo] == key
}

// runEnd returns how many of a leaf's ascending keys are ≤ hi: where the
// run a scan bounded by hi takes from the leaf ends (it starts at
// lowerBoundLinear(keys, lo)). Only the last leaf of a scan needs the
// search. Both bounds are found by the forward scan whatever the leaf's
// size: the leaf a scan starts or ends in is usually cold, a binary
// search's probes would miss the cache one after the other, and the
// forward scan streams through the lines the run is about to be read
// from (on a 1 M-key tree the binary search cost a 65-key page 5 % more).
func runEnd(keys []int64, hi int64) int {
	if n := len(keys); n == 0 || keys[n-1] <= hi {
		return n
	}
	return lowerBoundLinear(keys, hi+1) // hi < keys[n-1], so hi+1 cannot overflow
}

// routeLinear returns the number of separators ≤ key (the child slot
// routing key) by sequential scan.
func routeLinear(keys []int64, key int64) int {
	for i, k := range keys {
		if key < k {
			return i
		}
	}
	return len(keys)
}

// routeBinary is routeLinear by binary search.
func routeBinary(keys []int64, key int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if key < keys[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// lowerBoundLinear returns the first slot whose key is ≥ key by
// sequential scan.
func lowerBoundLinear(keys []int64, key int64) int {
	for i, k := range keys {
		if k >= key {
			return i
		}
	}
	return len(keys)
}

// lowerBoundBinary is lowerBoundLinear by binary search.
func lowerBoundBinary(keys []int64, key int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBoundAtomic is lowerBoundBinary for a latch-free reader: a writer
// may be shifting keys meanwhile, so every probe is an atomic load and
// the result means nothing until the node's version validates.
func lowerBoundAtomic(keys []int64, key int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if atomic.LoadInt64(&keys[mid]) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Tree is a concurrent B⁺-tree. Create one with New. All methods are safe
// for concurrent use by any number of goroutines.
type Tree struct {
	alg  Algorithm
	cap  int
	root atomic.Pointer[node]
	size atomic.Int64

	splits        atomic.Int64
	restarts      atomic.Int64
	crossings     atomic.Int64
	readRestarts  atomic.Int64 // OLC failed version validations
	readFallbacks atomic.Int64 // OLC descents that fell back to locking

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
	t.root.Store(t.newNode(1))
	return t
}

// newNode returns an empty node for the given level, wired to the
// level's telemetry sink and, for an OLC leaf, holding its fixed storage.
func (t *Tree) newNode(level int) *node {
	n := &node{level: level}
	if t.probe != nil {
		n.mu.SetProbe(t.probe(level))
	}
	if t.alg == OLC && level == 1 {
		n.fixed = true
		n.keys = make([]int64, t.cap+1)
		n.vals = make([]uint64, t.cap+1)
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
		Restarts:      t.restarts.Load(),
		Crossings:     t.crossings.Load(),
		ReadRestarts:  t.readRestarts.Load(),
		ReadFallbacks: t.readFallbacks.Load(),
	}
}

// Height returns the current number of levels. It is exact when quiescent
// and approximate under concurrent root splits.
func (t *Tree) Height() int { return t.root.Load().level }

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
	n.mu.SetProbe(sinkFor(n.level))
	for _, c := range n.children {
		t.instrumentAll(c, sinkFor)
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
		if write {
			r.mu.Lock()
		} else {
			r.mu.RLock()
		}
		if t.root.Load() == r {
			return r
		}
		if write {
			r.mu.Unlock()
		} else {
			r.mu.RUnlock()
		}
	}
}

func alwaysRead(*node) bool    { return false }
func alwaysWrite(*node) bool   { return true }
func writeIfLeaf(n *node) bool { return n.isLeaf() }

// split moves the upper half of n into a new right sibling, maintaining
// right links and high keys (a Lehman–Yao half-split). Caller holds n.mu
// exclusively. Returns the sibling and separator. Under OLC the sibling
// is complete before n's right link makes it reachable, and everything a
// latch-free reader can see of n changes by atomic stores.
func (t *Tree) split(n *node) (*node, int64) {
	t.splits.Add(1)
	sib := t.newNode(n.level)
	var sep int64
	switch {
	case n.fixed:
		keys, vals := n.leaf()
		m := (len(keys) + 1) / 2
		sib.cnt.Store(int32(copy(sib.keys, keys[m:])))
		copy(sib.vals, vals[m:])
		n.cnt.Store(int32(m))
		sep = sib.keys[0]
	case n.isLeaf():
		m := (len(n.keys) + 1) / 2
		sib.keys = append(sib.keys, n.keys[m:]...)
		sib.vals = append(sib.vals, n.vals[m:]...)
		n.keys = n.keys[:m:m]
		n.vals = n.vals[:m:m]
		sep = sib.keys[0]
	default:
		m := (len(n.children) + 1) / 2
		sep = n.keys[m-1]
		sib.children = append(sib.children, n.children[m:]...)
		sib.keys = append(sib.keys, n.keys[m:]...)
		n.children = n.children[:m:m]
		n.keys = n.keys[: m-1 : m-1]
		if t.alg == OLC {
			sib.setRouting(sib.keys, sib.children)
			n.setRouting(n.keys, n.children)
		}
	}
	sib.high.Store(n.high.Load())
	sib.right.Store(n.right.Load())
	n.high.Store(sep)
	n.right.Store(sib)
	return sib, sep
}

// addChild installs a (separator, child) pair. Caller holds n.mu
// exclusively and n must cover sep.
func (t *Tree) addChild(n *node, sep int64, child *node) {
	i := n.childIndex(sep)
	if t.alg == OLC {
		n.setRouting(insertCopy(n.keys, i, sep), insertCopy(n.children, i+1, child))
		return
	}
	n.keys = insertAt(n.keys, i, sep)
	n.children = insertAt(n.children, i+1, child)
}

// growRoot replaces the root after splitting it. Caller holds old.mu
// exclusively and has verified old is the current root.
func (t *Tree) growRoot(old *node, sep int64, sib *node) {
	r := t.newNode(old.level + 1)
	r.keys, r.children = []int64{sep}, []*node{old, sib}
	if t.alg == OLC {
		// Latch-free readers may reach the new root the instant the CAS
		// lands.
		r.setRouting(r.keys, r.children)
	}
	if !t.root.CompareAndSwap(old, r) {
		panic("cbtree: concurrent root replacement")
	}
}

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

// insertCopy is insertAt into a fresh slice, leaving s untouched.
func insertCopy[T any](s []T, i int, v T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}
