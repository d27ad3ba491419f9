package diskbtree

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"btreeperf/internal/pagestore"
)

// frame is the header of a buffer-pool slot. A slot is permanent: header,
// latch and key/pointer storage belong to it for the life of the pool,
// and only the page it holds changes. The header is kept to 72 bytes and
// the storage to 16 bytes per item because a fixed-capacity slot cannot
// be smaller than a full node, so everything else about it has to be.
//
// mu is the node latch and guards the fields marked node (see the node
// type); those marked pool are guarded by cache.mu. Slots refer to each
// other by index, biased by one where zero must mean "none". The field
// order packs the header; a test pins its size.
type frame struct {
	mu sync.RWMutex

	id    pagestore.PageID // pool: page held; 0 = none (a failed load)
	right pagestore.PageID // node: right sibling; 0 = rightmost
	high  int64            // node: high key, if hasHigh
	prev  int32            // pool: LRU neighbours, meaningful iff pins == 0
	next  int32            //
	hnext int32            // pool: next slot + 1 in the page table's chain
	pins  int16            // pool
	level uint8            // node
	// cut marks a page whose contents as of the checkpoint cut in flight
	// are still only here. It is set by the cut (under cache.mu, with the
	// writers barred and the slot unpinned or only read-latched) and
	// cleared by whoever writes those contents out: a writer under the
	// exclusive latch before it changes the node, the checkpoint under a
	// shared latch, or an eviction under cache.mu.
	cut bool
	// busy is set (under cache.mu) while the slot's claimer moves a page
	// out of or into it, and cleared by the claimer when it is done.
	busy    atomic.Bool
	n       uint16 // node: items — values in a leaf, children otherwise
	dirty   bool   // pool
	hasHigh bool   // node
}

// cache is the LRU buffer pool. The protocol, spelled out in DESIGN.md
// "The buffer pool": get pins a slot; the caller may then latch it, use
// the node, unlatch, and put — pin, then latch, then (on a miss) I/O.
// Latches are only held, or waited for, on pinned slots, so eviction
// (which only takes unpinned slots) never races a node access. Nothing is
// acquired while mu is held except the latch of a slot just taken off the
// LRU list, which is free by that argument; all file I/O, checksumming,
// encoding and decoding happen after mu is released, under the latch of
// the one slot they concern.
type cache struct {
	mu       sync.Mutex
	store    *pagestore.Store
	capacity int32
	nodeCap  int // items of storage per slot

	frames  []frame    // capacity slots, then the LRU list's sentinel
	used    int32      // slots handed out so far; they are never returned
	perSlab int32      // slots per storage slab
	keys    [][]int64  // storage slabs, grown as slots are first used
	ptrs    [][]uint64 //

	heads    []int32 // page table: chain heads (slot + 1), by hash of the page id
	shift    uint    // 64 − log2(len(heads))
	resident int
	// writing lists the dirty pages on their way to the file. Such a page
	// has left the table (its slot already answers to another page) but
	// must not be read back from the file yet.
	writing []writeback

	hits      int64
	misses    int64
	evictions int64

	// The checkpoint cut in flight: one count per page marked cut, done
	// when its contents are written; and the pages it has written, the
	// map's included.
	cutPending sync.WaitGroup
	cutWritten atomic.Int64
}

type writeback struct {
	id   pagestore.PageID
	slot int32
}

// CacheStats reports buffer-pool effectiveness — the measured counterpart
// of the LRU-buffering extension of the analytical model.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Resident  int
	Capacity  int
}

// resetStats zeroes the access counters so stats measure the workload,
// not Open's recovery replay.
func (c *cache) resetStats() {
	c.mu.Lock()
	c.hits, c.misses, c.evictions = 0, 0, 0
	c.mu.Unlock()
}

// pageBufs recycles the page buffers a slot's claimer encodes into and
// decodes from, one per I/O in flight.
var pageBufs = sync.Pool{New: func() any { return new([pagestore.PageSize]byte) }}

// slabBytes sizes one slab of key (or pointer) storage. Slots are cut
// from slabs so that one costs 16 bytes per item — not a page, and not a
// make of its own rounded up to a size class.
const slabBytes = 128 << 10

func newCache(store *pagestore.Store, capacity, treeCap int) *cache {
	capacity = min(max(capacity, 4), 1<<30)
	c := &cache{
		store:    store,
		capacity: int32(capacity),
		nodeCap:  treeCap,
		frames:   make([]frame, capacity+1),
		perSlab:  int32(max(slabBytes/(8*treeCap), 1)),
		heads:    make([]int32, 1<<bits.Len(uint(capacity-1))),
	}
	c.shift = uint(64 - bits.TrailingZeros(uint(len(c.heads))))
	lru := &c.frames[capacity]
	lru.prev, lru.next = c.capacity, c.capacity
	return c
}

// view returns slot s as a node. Caller holds mu (the slab lists grow
// under it).
func (c *cache) view(s int32) node {
	slab, lo := s/c.perSlab, int(s%c.perSlab)*c.nodeCap
	return node{
		frame: &c.frames[s],
		slot:  s,
		k:     c.keys[slab][lo : lo+c.nodeCap],
		p:     c.ptrs[slab][lo : lo+c.nodeCap],
	}
}

// Page table: chained hashing through frame.hnext. Caller holds mu.

func (c *cache) bucket(id pagestore.PageID) *int32 {
	return &c.heads[uint64(id)*0x9E3779B97F4A7C15>>c.shift]
}

// find returns the slot that answers for page id — the one holding it, or
// the one still writing it back — or -1.
func (c *cache) find(id pagestore.PageID) int32 {
	for s := *c.bucket(id) - 1; s >= 0; s = c.frames[s].hnext - 1 {
		if c.frames[s].id == id {
			return s
		}
	}
	for _, w := range c.writing {
		if w.id == id {
			return w.slot
		}
	}
	return -1
}

func (c *cache) hashIn(s int32) {
	b := c.bucket(c.frames[s].id)
	c.frames[s].hnext, *b = *b, s+1
	c.resident++
}

func (c *cache) hashOut(s int32) {
	p := c.bucket(c.frames[s].id)
	for *p != s+1 {
		p = &c.frames[*p-1].hnext
	}
	*p = c.frames[s].hnext
	c.resident--
}

// LRU list: frames[capacity] is the sentinel, its next the most recently
// unpinned slot and its prev the victim. Caller holds mu.

// pushLocked puts an unpinned slot on the list: at the hot end, or at the
// cold end when it holds nothing worth keeping.
func (c *cache) pushLocked(s int32, hot bool) {
	at := c.capacity // insert after at
	if !hot {
		at = c.frames[c.capacity].prev
	}
	f, next := &c.frames[s], c.frames[at].next
	f.prev, f.next = at, next
	c.frames[next].prev, c.frames[at].next = s, s
}

// pinLocked pins a slot, taking it off the eviction list.
func (c *cache) pinLocked(s int32) {
	f := &c.frames[s]
	if f.pins == 0 {
		c.frames[f.prev].next, c.frames[f.next].prev = f.next, f.prev
	}
	f.pins++
}

// get returns page id's node, pinned and not latched, reading and
// decoding the page on a miss.
func (c *cache) get(id pagestore.PageID) (node, error) {
	for {
		c.mu.Lock()
		s := c.find(id)
		if s < 0 {
			c.misses++
			return c.claim(id, true)
		}
		c.pinLocked(s)
		n := c.view(s)
		busy := n.busy.Load()
		if !busy {
			c.hits++
		}
		c.mu.Unlock()
		if !busy {
			return n, nil
		}
		// The slot's claimer is still writing this page back, or still
		// reading it in. Its exclusive latch is the completion signal;
		// then look the page up afresh — it may be here (one read served
		// both), gone (read it back from the file, where the write has
		// landed), or its load may have failed.
		n.mu.RLock()
		n.mu.RUnlock()
		c.put(n, false)
	}
}

// create allocates a fresh page and returns its node pinned, dirty and
// exclusively latched: an empty rightmost node of the given level for the
// caller to fill.
func (c *cache) create(level int) (node, error) {
	id, err := c.store.Allocate()
	if err != nil {
		return node{}, err
	}
	c.mu.Lock()
	n, err := c.claim(id, false)
	if err != nil {
		return node{}, err
	}
	n.reset(level)
	return n, nil
}

// claim takes a slot for page id — a never-used one, else the coldest
// unpinned one, evicting the page it holds with a write-back if that is
// dirty — and, when load is set, reads page id into it. Called with mu
// held; it returns with mu released and the node pinned, exclusively
// latched when load is not set.
//
// While the claimer works the slot is busy and exclusively latched. It
// answers for id at once, so a second miss on id waits for this read
// rather than issuing its own, and through the writing list it answers
// for the evicted page until the write-back has landed, so nobody reads
// that page's stale file copy. Only the claimer touches a busy slot's
// node.
func (c *cache) claim(id pagestore.PageID, load bool) (node, error) {
	var s int32
	if c.used < c.capacity {
		s = c.used
		c.used++
		if int(s/c.perSlab) == len(c.keys) {
			items := int(min(c.perSlab, c.capacity-s)) * c.nodeCap
			c.keys = append(c.keys, make([]int64, items))
			c.ptrs = append(c.ptrs, make([]uint64, items))
		}
		c.frames[s].pins = 1
	} else if s = c.frames[c.capacity].prev; s != c.capacity {
		c.pinLocked(s)
	} else {
		c.mu.Unlock()
		return node{}, fmt.Errorf("diskbtree: buffer pool exhausted (%d frames, all pinned)", c.capacity)
	}
	n := c.view(s)
	old, writeBack, cut := n.id, n.dirty, n.cut
	n.cut = false
	if old != 0 {
		c.evictions++
		c.hashOut(s)
		if writeBack {
			c.writing = append(c.writing, writeback{old, s})
		}
	}
	n.mu.Lock() // free: the slot was unpinned, so its latch has no holder and no waiter
	n.busy.Store(true)
	n.id, n.dirty = id, !load
	c.hashIn(s)
	c.mu.Unlock()

	var err error
	if writeBack || load {
		err = c.transfer(n, old, writeBack, cut, load)
	}
	n.busy.Store(false)
	if err != nil {
		n.mu.Unlock()
		c.put(n, false)
		return node{}, err
	}
	if load {
		n.mu.Unlock()
	}
	return n, nil
}

// transfer does a claimed slot's I/O, through one pooled page buffer and
// under nothing but the slot's latch: the evicted page old out, if
// writeBack — as its cut contents if it was marked cut — then the slot's
// new page in, if load.
func (c *cache) transfer(n node, old pagestore.PageID, writeBack, cut, load bool) error {
	page := pageBufs.Get().(*[pagestore.PageSize]byte)
	defer pageBufs.Put(page)
	if writeBack {
		n.encode(page[:])
		var err error
		if cut {
			err = c.writeCut(old, page[:])
		} else {
			err = c.store.WritePage(old, page[:])
		}
		c.mu.Lock()
		for i, w := range c.writing {
			if w.slot == n.slot {
				last := len(c.writing) - 1
				c.writing[i] = c.writing[last]
				c.writing = c.writing[:last]
				break
			}
		}
		if err != nil { // the evicted page stays where it was, still dirty
			c.hashOut(n.slot)
			n.id, n.dirty = old, true
			c.hashIn(n.slot)
		}
		c.mu.Unlock()
		if err != nil {
			return err
		}
	}
	if !load {
		return nil
	}
	err := c.store.ReadInto(n.id, page[:])
	if err == nil {
		if err = n.decode(page[:]); err != nil {
			err = fmt.Errorf("diskbtree: page %d: %w", n.id, err)
		}
	}
	if err != nil { // the slot holds nothing
		c.mu.Lock()
		c.hashOut(n.slot)
		n.id = 0
		c.mu.Unlock()
	}
	return err
}

// put unpins a node, recording whether the caller modified it.
func (c *cache) put(n node, dirty bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n.pins <= 0 {
		panic("diskbtree: put of unpinned frame")
	}
	n.dirty = n.dirty || dirty
	n.pins--
	if n.pins == 0 {
		c.pushLocked(n.slot, n.id != 0)
	}
}

// beginCut is the pool's half of a checkpoint's cut; the caller bars the
// writers for its duration. It marks every dirty page cut and hands them
// to the store's BeginCut, then waits out the write-backs already in
// flight — their pages are clean by the time a reader could want them,
// and their slots hold the contents as of the cut — and has the store
// adopt those slots. It returns the pages marked and the cut map's page
// count.
func (c *cache) beginCut() (marked []pagestore.PageID, mapPages int, err error) {
	c.mu.Lock()
	var ids []pagestore.PageID
	for s := int32(0); s < c.used; s++ {
		if f := &c.frames[s]; f.id != 0 && f.dirty && !f.busy.Load() {
			f.cut = true
			ids = append(ids, f.id)
		}
	}
	inflight := append([]writeback(nil), c.writing...)
	c.cutPending.Add(len(ids))
	mapPages = c.store.BeginCut(ids)
	c.mu.Unlock()

	for _, w := range inflight {
		f := &c.frames[w.slot]
		f.mu.RLock() // the claimer holds it exclusively until the write has landed
		f.mu.RUnlock()
		c.mu.Lock()
		s := c.find(w.id)
		failed := s >= 0 && c.frames[s].dirty // nothing else can have dirtied it
		c.mu.Unlock()
		if failed {
			err = fmt.Errorf("diskbtree: write-back of page %d failed during a checkpoint cut", w.id)
			continue
		}
		c.store.AdoptCut(w.id)
	}
	return ids, mapPages, err
}

// writeCut writes page as page id's cut contents and counts it done.
func (c *cache) writeCut(id pagestore.PageID, page []byte) error {
	err := c.store.WriteCut(id, page)
	c.cutWritten.Add(1)
	c.cutPending.Done()
	return err
}

// saveCut writes out the cut contents of n, which the caller is about to
// change under its exclusive latch.
func (c *cache) saveCut(n node) error {
	page := pageBufs.Get().(*[pagestore.PageSize]byte)
	defer pageBufs.Put(page)
	n.encode(page[:])
	n.cut = false
	return c.writeCut(n.id, page[:])
}

// flushCut writes every page of marked that is still marked cut, each
// under a shared latch, leaving it clean, and then waits for the cut
// writes that writers and evictions took over. It visits every page even
// after a failure, so that none stays marked past the checkpoint; the
// first error is returned.
func (c *cache) flushCut(marked []pagestore.PageID) error {
	page := pageBufs.Get().(*[pagestore.PageSize]byte)
	defer pageBufs.Put(page)
	var first error
	for _, id := range marked {
		c.mu.Lock()
		s := c.find(id)
		if s < 0 || c.frames[s].busy.Load() {
			// Evicted, or on its way out: the eviction writes the cut.
			c.mu.Unlock()
			continue
		}
		c.pinLocked(s)
		n := c.view(s)
		c.mu.Unlock()
		n.mu.RLock()
		if n.cut {
			n.encode(page[:])
			n.cut = false
			err := c.writeCut(id, page[:])
			if err == nil {
				c.mu.Lock()
				n.dirty = false
				c.mu.Unlock()
			} else if first == nil {
				first = err
			}
		}
		n.mu.RUnlock()
		c.put(n, false)
	}
	c.cutPending.Wait()
	return first
}

// stats snapshots the counters.
func (c *cache) statsSnapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Resident:  c.resident,
		Capacity:  int(c.capacity),
	}
}
