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
// it is one node kernel — one leaf layout, one inner layout, one way to
// put, remove, split and route (see node) — so they are directly
// comparable (see the benchmarks at the repository root, the modern
// analogue of the paper's Figure 12) and a sequential stream builds the
// same tree under all of them. The kernel asks which algorithm it serves
// only to choose atomic or plain stores into a leaf.
//
// Restructuring is merge-at-empty in the lazy sense the paper adopts for
// the Link-type algorithm: nodes emptied by deletes remain in place and
// are reclaimed only by Compact (which requires quiescence). With more
// inserts than deletes — the regime the paper's analysis covers — empty
// nodes are vanishingly rare ([10]).
package cbtree

import (
	"fmt"
	"slices"
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
// There is one layout, whatever the algorithm, and it is the one
// lock.VersionLock's contract asks of state that latch-free readers read
// between ReadBegin and Validate while a writer may be at work:
//
//   - a leaf gets keys and vals once, at exactly cap slots, and the two
//     slice headers never change again, so no index a reader computes can
//     leave the storage. cnt is the item count; writers shift items in
//     place (with atomic stores when the algorithm has latch-free
//     readers, who use atomic loads). Storage ends at a full node: an
//     insert into a full leaf half-splits around the new item into a
//     sibling nobody can reach yet (splitLeaf);
//   - an inner node's routing is replaced, never edited: a writer builds
//     fresh keys and children and publishes the pair through img, the
//     only way latch-free readers reach them (setRouting). Inner nodes
//     change once per child split, so this is the cheap side to keep
//     immutable;
//   - right and high are atomic (a plain load on the platforms this runs
//     on; they are stored only by splits), and a sibling is complete
//     before its left neighbour's right link makes it reachable.
//
// Lock holders read everything plainly: the lock orders them with the
// writers.
type node struct {
	mu       lock.VersionLock
	level    int
	cnt      atomic.Int32 // leaf: items in keys/vals
	keys     []int64      // leaf: cap slots; inner: the current separators
	vals     []uint64     // leaf: cap slots
	children []*node      // inner: the current children
	right    atomic.Pointer[node]
	high     atomic.Int64
	img      atomic.Pointer[routing] // inner: {keys, children}
}

// routing is what a latch-free reader sees of an inner node: the node's
// current keys and children slices, immutable once published.
type routing struct {
	keys     []int64
	children []*node
}

// setRouting installs an inner node's routing arrays. Caller holds n.mu
// exclusively, or owns n because it is not yet reachable.
func (n *node) setRouting(keys []int64, children []*node) {
	n.keys, n.children = keys, children
	n.img.Store(&routing{keys: keys, children: children})
}

func (n *node) isLeaf() bool { return n.level == 1 }

// leaf returns the keys and values a leaf holds. Caller must hold n.mu.
func (n *node) leaf() ([]int64, []uint64) {
	c := n.cnt.Load()
	return n.keys[:c], n.vals[:c]
}

// items is the paper's occupancy: keys for leaves, children for internal
// nodes. Caller must hold n.mu.
func (n *node) items() int {
	if n.isLeaf() {
		return int(n.cnt.Load())
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
	t.root.Store(t.newNode(1))
	return t
}

// newNode returns an empty node for the given level, wired to the
// level's telemetry sink and, for a leaf, holding its storage.
func (t *Tree) newNode(level int) *node {
	n := &node{level: level}
	if t.probe != nil {
		n.mu.SetProbe(t.probe(level))
	}
	if level == 1 {
		n.keys = make([]int64, t.cap)
		n.vals = make([]uint64, t.cap)
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
		StaleHints:    t.staleHints.Load(),
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
// holds n.mu exclusively and n covers key. A full leaf is half-split
// around the new item; the sibling and separator are returned for the
// caller's protocol to install one level up (sib is nil otherwise).
func (t *Tree) leafPut(n *node, key int64, val uint64) (fresh bool, sib *node, sep int64) {
	latchFree := t.alg == OLC
	i, ok := n.keyIndex(key)
	if ok {
		if latchFree {
			atomic.StoreUint64(&n.vals[i], val)
		} else {
			n.vals[i] = val
		}
		return false, nil, 0
	}
	t.size.Add(1)
	if n.items() < t.cap {
		n.insertSlot(i, key, val, latchFree)
		return true, nil, 0
	}
	sib, sep = t.splitLeaf(n, i, key, val, latchFree)
	return true, sib, sep
}

// leafRemove deletes key from a leaf, reporting whether it was there.
// Caller holds n.mu exclusively.
func (t *Tree) leafRemove(n *node, key int64) bool {
	i, ok := n.keyIndex(key)
	if !ok {
		return false
	}
	keys, vals := n.leaf()
	if t.alg == OLC {
		for j := i + 1; j < len(keys); j++ {
			atomic.StoreInt64(&keys[j-1], keys[j])
			atomic.StoreUint64(&vals[j-1], vals[j])
		}
	} else {
		copy(keys[i:], keys[i+1:])
		copy(vals[i:], vals[i+1:])
	}
	n.cnt.Store(int32(len(keys) - 1))
	t.size.Add(-1)
	return true
}

// insertSlot puts (key, val) into slot i of a leaf with room, shifting
// the items from i up by one. Caller holds n.mu exclusively; latchFree
// says the stores must be atomic because latch-free readers may be
// loading the same slots.
func (n *node) insertSlot(i int, key int64, val uint64, latchFree bool) {
	c := int(n.cnt.Load())
	keys, vals := n.keys[:c+1], n.vals[:c+1]
	if latchFree {
		for j := c; j > i; j-- {
			atomic.StoreInt64(&keys[j], keys[j-1])
			atomic.StoreUint64(&vals[j], vals[j-1])
		}
		atomic.StoreInt64(&keys[i], key)
		atomic.StoreUint64(&vals[i], val)
	} else {
		copy(keys[i+1:], keys[i:])
		copy(vals[i+1:], vals[i:])
		keys[i], vals[i] = key, val
	}
	n.cnt.Store(int32(c + 1))
}

// splitLeaf puts (key, val), which belongs at slot i, into the full leaf
// n by a Lehman–Yao half-split around it: of the cap+1 items the lower
// ⌈(cap+1)/2⌉ stay, the rest go to a new right sibling — the halves an
// insert followed by a halving would make, without the slot of overflow.
// Caller holds n.mu exclusively. The sibling is complete before n's
// right link makes it reachable, n sheds its upper half before the new
// item moves into the lower one (storage ends at a full node), and
// everything a latch-free reader can see of n changes by atomic stores.
func (t *Tree) splitLeaf(n *node, i int, key int64, val uint64, latchFree bool) (*node, int64) {
	t.splits.Add(1)
	sib := t.newNode(1)
	m := (t.cap + 2) / 2 // what n keeps
	if i < m {
		sib.cnt.Store(int32(copy(sib.keys, n.keys[m-1:])))
		copy(sib.vals, n.vals[m-1:])
		n.cnt.Store(int32(m - 1))
		n.insertSlot(i, key, val, latchFree)
	} else {
		j := i - m
		copy(sib.keys, n.keys[m:i])
		copy(sib.vals, n.vals[m:i])
		sib.keys[j], sib.vals[j] = key, val
		sib.cnt.Store(int32(j + 1 + copy(sib.keys[j+1:], n.keys[i:])))
		copy(sib.vals[j+1:], n.vals[i:])
		n.cnt.Store(int32(m))
	}
	sep := sib.keys[0]
	linkRight(n, sib, sep)
	return sib, sep
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

// addChild installs a (separator, child) pair in inner node n by
// replacing its routing. Caller holds n.mu exclusively and n must cover
// sep. When the pair is one more than n can hold the new routing is
// halved instead (splitInner) and the sibling and separator come back
// for the caller's protocol to install one level up.
func (t *Tree) addChild(n *node, sep int64, child *node) (*node, int64) {
	i := n.childIndex(sep)
	keys, children := insertCopy(n.keys, i, sep), insertCopy(n.children, i+1, child)
	if len(children) > t.cap {
		return t.splitInner(n, keys, children)
	}
	n.setRouting(keys, children)
	return nil, 0
}

// splitInner shares an overflowing routing between n, which keeps the
// lower ⌈(cap+1)/2⌉ children, and a new right sibling; the separator
// between them moves up. Caller holds n.mu exclusively.
func (t *Tree) splitInner(n *node, keys []int64, children []*node) (*node, int64) {
	t.splits.Add(1)
	m := (len(children) + 1) / 2
	sib := t.newNode(n.level)
	sib.setRouting(slices.Clone(keys[m:]), slices.Clone(children[m:]))
	n.setRouting(keys[:m-1:m-1], children[:m:m])
	linkRight(n, sib, keys[m-1])
	return sib, keys[m-1]
}

// growRoot replaces the root after splitting it. Caller holds old.mu
// exclusively and has verified old is the current root. Latch-free
// readers may reach the new root the instant the CAS lands.
func (t *Tree) growRoot(old *node, sep int64, sib *node) {
	r := t.newNode(old.level + 1)
	r.setRouting([]int64{sep}, []*node{old, sib})
	if !t.root.CompareAndSwap(old, r) {
		panic("cbtree: concurrent root replacement")
	}
}

// insertCopy returns a fresh slice holding s with v inserted at i.
func insertCopy[T any](s []T, i int, v T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}
