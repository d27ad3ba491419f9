// Package diskbtree is a disk-backed concurrent B⁺-tree: the Lehman–Yao
// (Link-type) protocol — the paper's winning algorithm — running over
// fixed-size pages with an LRU buffer pool. It makes the paper's abstract
// "disk cost D" concrete: node accesses that miss the buffer pool perform
// real page I/O, and the pool's hit ratio is exactly the quantity the
// LRU-buffering extension of the analytical model (core.BufferedCosts)
// predicts from the tree shape.
//
// Concurrency: any number of goroutines may call Search, Insert, Delete
// and Range concurrently. Each buffered node carries its own
// reader/writer latch; operations hold at most one latch at a time (two,
// briefly, when a leaf-chain walk couples to the next leaf) and recover
// from concurrent splits through right links, exactly as in
// internal/cbtree. The latch is a plain sync.RWMutex, not cbtree's
// instrumented FCFS lock: the disk tree never reported per-level lock
// telemetry, and a buffer-pool slot has no room for 150 bytes of it.
//
// Durability: the tree file holds the last checkpoint, which Sync and
// Close commit page by page through the store's slot map (see Checkpoint
// in checkpoint.go); a non-durable tree opens at its last Sync or Close.
// With Options.Durable every mutation is also logged to an oplog, and
// crash recovery opens the last checkpoint and replays the oplog suffix
// past it. Restructuring is lazy merge-at-empty, as everywhere in this
// repository.
package diskbtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"btreeperf/internal/pagestore"
)

// MaxCap is the largest node capacity a 4 KiB page can hold
// (16 bytes per item plus the header).
const MaxCap = 250

// defaultCap is the node capacity a zero Options.Cap stands for.
const defaultCap = 128

// headerSize is the serialized node header:
// level(2) flags(1) pad(1) nkeys(4) high(8) right(8).
const headerSize = 24

// node is a pinned buffer-pool slot seen as a tree node: the frame header
// (latch, level, item count, right link, high key) together with the
// slot's fixed key and pointer storage. It is a view, built by the pool
// and passed by value; the node fields of the header and the storage are
// guarded by the latch, n.mu.
//
// Pointers are what the keys point at: values in a leaf, one per key;
// child page ids in an internal node, one more than keys. The storage
// holds exactly a full node (cap items), so no operation on a node ever
// allocates; an insert into a full node goes through split's scratch.
type node struct {
	*frame
	slot int32
	k    []int64  // key storage, full length
	p    []uint64 // pointer storage, full length
}

// newNode returns a free-standing node (no pool behind it) with storage
// for items items.
func newNode(level, items int) node {
	return node{frame: &frame{level: uint8(level)}, k: make([]int64, items), p: make([]uint64, items)}
}

// reset empties the node for reuse as a fresh rightmost node of level.
func (n node) reset(level int) {
	n.level, n.n = uint8(level), 0
	n.right, n.high, n.hasHigh = 0, 0, false
}

func (n node) isLeaf() bool { return n.level == 1 }

func (n node) items() int { return int(n.n) }

func (n node) keys() []int64 {
	if n.level > 1 && n.n > 0 {
		return n.k[:n.n-1]
	}
	return n.k[:n.n]
}

func (n node) ptrs() []uint64 { return n.p[:n.n] }

func (n node) child(i int) pagestore.PageID { return pagestore.PageID(n.p[i]) }

func (n node) covers(key int64) bool { return !n.hasHigh || key < n.high }

// insert puts key at index ki of the keys and ptr at index pi of the
// pointers. The node must have room.
func (n node) insert(ki int, key int64, pi int, ptr uint64) {
	keys, ptrs := n.keys(), n.ptrs()
	copy(n.k[ki+1:], keys[ki:])
	copy(n.p[pi+1:], ptrs[pi:])
	n.k[ki], n.p[pi] = key, ptr
	n.n++
}

// remove deletes item i of a leaf.
func (n node) remove(i int) {
	copy(n.k[i:], n.k[i+1:n.n])
	copy(n.p[i:], n.p[i+1:n.n])
	n.n--
}

// set replaces the node's contents.
func (n node) set(keys []int64, ptrs []uint64) {
	copy(n.k, keys)
	n.n = uint16(copy(n.p, ptrs))
}

// encode serializes the node into page, a whole pagestore page: header,
// keys, pointers, then zeros up to the checksum the store stamps. Caller
// holds the latch.
func (n node) encode(page []byte) {
	keys, ptrs := n.keys(), n.ptrs()
	binary.LittleEndian.PutUint16(page[0:], uint16(n.level))
	var flags byte
	if n.hasHigh {
		flags |= 1
	}
	page[2], page[3] = flags, 0
	binary.LittleEndian.PutUint32(page[4:], uint32(len(keys)))
	binary.LittleEndian.PutUint64(page[8:], uint64(n.high))
	binary.LittleEndian.PutUint64(page[16:], uint64(n.right))
	off := headerSize
	for _, k := range keys {
		binary.LittleEndian.PutUint64(page[off:], uint64(k))
		off += 8
	}
	for _, p := range ptrs {
		binary.LittleEndian.PutUint64(page[off:], p)
		off += 8
	}
	clear(page[off:])
}

// decode parses a page payload into the node. Caller holds the latch
// exclusively (or owns the node outright).
func (n node) decode(buf []byte) error {
	if len(buf) < headerSize {
		return fmt.Errorf("diskbtree: short page (%d bytes)", len(buf))
	}
	level := binary.LittleEndian.Uint16(buf[0:])
	if level < 1 || level > math.MaxUint8 {
		return fmt.Errorf("diskbtree: bad node level %d", level)
	}
	nkeys := int(binary.LittleEndian.Uint32(buf[4:]))
	nptrs := nkeys
	if level > 1 {
		nptrs = nkeys + 1 // children
	}
	if nkeys < 0 || nptrs > len(n.p) {
		return fmt.Errorf("diskbtree: implausible key count %d", nkeys)
	}
	if need := headerSize + 8*nkeys + 8*nptrs; len(buf) < need {
		return fmt.Errorf("diskbtree: truncated node (%d < %d)", len(buf), need)
	}
	n.level, n.n = uint8(level), uint16(nptrs)
	n.hasHigh = buf[2]&1 != 0
	n.high = int64(binary.LittleEndian.Uint64(buf[8:]))
	n.right = pagestore.PageID(binary.LittleEndian.Uint64(buf[16:]))
	off := headerSize
	for i := range n.k[:nkeys] {
		n.k[i] = int64(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	for i := range n.p[:nptrs] {
		n.p[i] = binary.LittleEndian.Uint64(buf[off:])
		off += 8
	}
	return nil
}
