package diskbtree

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"btreeperf/internal/blink"
	"btreeperf/internal/journal"
	"btreeperf/internal/pagestore"
)

// ErrPoisoned is wrapped by every operation on a tree that has seen a
// storage failure. A failed page write or oplog fsync leaves the on-disk
// state unknowable (the kernel may have dropped the dirty data — the
// fsyncgate failure mode), so the tree fail-stops: nothing after the
// first storage error is ever acknowledged.
var ErrPoisoned = errors.New("diskbtree: tree poisoned by an earlier storage failure")

// Tree is a disk-backed concurrent B⁺-tree under the Lehman–Yao protocol.
// Create or reopen one with Open; see the package comment for the
// concurrency and durability contract.
type Tree struct {
	store *pagestore.Store
	cache *cache
	cap   int
	root  atomic.Uint64 // pagestore.PageID of the root
	size  atomic.Int64

	jnl       *journal.Journal // nil when not durable
	replaying bool             // recovery replay in progress; skip oplog appends

	// cutMu is the checkpoint's writer barrier: every mutation holds it
	// shared from its descent to its oplog append, the cut exclusively.
	cutMu  sync.RWMutex
	ckptMu sync.Mutex // one checkpoint at a time

	fail atomic.Pointer[treeFault] // sticky first storage failure

	splits      atomic.Int64
	crossings   atomic.Int64
	recovered   atomic.Int64 // operations replayed at the last Open
	ckptSeq     atomic.Int64 // oplog sequence of the last committed checkpoint
	checkpoints atomic.Int64 // checkpoints committed since Open
	ckptTotal   atomic.Int64 // pages the checkpoint in flight writes; 0 = none
	ckptWriteNs atomic.Int64 // the last committed checkpoint's write-back: its cut's pages and its map
	ckptSyncNs  atomic.Int64 // and its final fsync of the tree file
}

type treeFault struct{ err error }

// Poisoned returns the sticky storage failure wrapped in ErrPoisoned, or
// nil while the tree is healthy.
func (t *Tree) Poisoned() error {
	if f := t.fail.Load(); f != nil {
		return fmt.Errorf("%w: %w", ErrPoisoned, f.err)
	}
	return nil
}

// poison records err as the sticky failure (first one wins) and returns
// err unchanged.
func (t *Tree) poison(err error) error {
	if err == nil {
		return nil
	}
	t.fail.CompareAndSwap(nil, &treeFault{err: err})
	return err
}

// Options configures Open.
type Options struct {
	// Cap is the maximum items per node (3..MaxCap). Default 128
	// (defaultCap).
	Cap int
	// CacheNodes is the buffer-pool capacity in nodes. Default 1024.
	CacheNodes int
	// Durable enables crash recovery: every mutation is logged to an
	// oplog, and Open replays the oplog suffix past the last checkpoint.
	// Checkpoints write the pages dirtied since the previous one into free
	// slots of the one tree file and commit through its meta pages,
	// concurrently with serving — see Checkpoint. Operations are durable
	// at the next Commit or Sync (group commit) and not before: until then
	// their oplog records are in memory only, and a process kill loses
	// them.
	Durable bool
	// FS overrides the file layer for the store and journal (failpoint
	// testing). Nil means the real filesystem.
	FS pagestore.FS
}

// Open opens (creating if necessary) a tree stored at path.
func Open(path string, opts Options) (*Tree, error) {
	opts.Cap = cmp.Or(opts.Cap, defaultCap)
	if opts.Cap < 3 || opts.Cap > MaxCap {
		return nil, fmt.Errorf("diskbtree: capacity %d outside [3, %d]", opts.Cap, MaxCap)
	}
	if opts.CacheNodes == 0 {
		opts.CacheNodes = 1024
	}
	store, err := pagestore.OpenFS(path, opts.FS)
	if err != nil {
		return nil, err
	}
	t := &Tree{store: store, cache: newCache(store, opts.CacheNodes, opts.Cap), cap: opts.Cap}
	if store.Root() == 0 {
		err = t.initEmpty()
	} else {
		err = t.loadMeta()
	}
	if err == nil && opts.Durable {
		err = t.attachJournal(path, opts.FS)
	}
	if err != nil {
		if t.jnl != nil {
			t.jnl.Close()
		}
		store.Close()
		return nil, err
	}
	t.cache.resetStats() // recovery replay is not workload
	return t, nil
}

// initEmpty gives a fresh store an empty leaf root, in the pool: the
// first checkpoint writes it.
func (t *Tree) initEmpty() error {
	n, err := t.cache.create(1)
	if err != nil {
		return err
	}
	t.root.Store(uint64(n.id))
	t.wUnlatch(n, true)
	return nil
}

// loadMeta restores root, size, and checkpoint sequence from the store's
// committed meta page, validating the persisted capacity.
func (t *Tree) loadMeta() error {
	t.root.Store(uint64(t.store.Root()))
	ud := t.store.UserData()
	t.size.Store(int64(binary.LittleEndian.Uint64(ud[:8])))
	storedCap := int(binary.LittleEndian.Uint64(ud[8:16]))
	if storedCap != 0 && storedCap != t.cap {
		return fmt.Errorf("diskbtree: store was created with capacity %d, not %d", storedCap, t.cap)
	}
	t.ckptSeq.Store(int64(binary.LittleEndian.Uint64(ud[16:24])))
	return nil
}

// attachJournal opens the oplog, reads its chain against the checkpoint,
// replays the records past it, and, if it replayed anything, checkpoints
// at the replayed head.
func (t *Tree) attachJournal(path string, fs pagestore.FS) error {
	j, err := journal.OpenFS(path, false, fs)
	if err != nil {
		return err
	}
	t.jnl = j
	ops, err := j.Recover(t.ckptSeq.Load())
	if err != nil {
		return err
	}

	// Replay the logged operations (idempotent set semantics).
	t.replaying = true
	for _, op := range ops {
		var err error
		switch op.Kind {
		case journal.OpInsert:
			_, err = t.insert(op.Key, op.Val)
		case journal.OpDelete:
			_, err = t.del(op.Key)
		}
		if err != nil {
			t.replaying = false
			return fmt.Errorf("diskbtree: replay: %w", err)
		}
	}
	t.replaying = false
	t.recovered.Store(int64(len(ops)))
	if len(ops) == 0 {
		return nil
	}
	// Recovery is idempotent (a crash here reruns the same replay); the
	// checkpoint's trim deletes the old run's segments.
	_, err = t.Checkpoint()
	return err
}

// Recovered returns the number of operations replayed by the last Open
// (always zero after a clean shutdown).
func (t *Tree) Recovered() int { return int(t.recovered.Load()) }

// Sync makes the whole tree durable by taking a checkpoint (see
// Checkpoint): safe concurrently with readers and writers. A storage
// failure poisons the tree.
func (t *Tree) Sync() error {
	_, err := t.Checkpoint()
	return err
}

// Commit makes every operation applied before the call durable without
// checkpointing: one oplog fsync covers all of them (group commit —
// concurrent committers piggyback on each other's fsyncs; see
// journal.Commit). Unlike Sync it is safe to call concurrently with
// other operations. Non-durable trees return nil. A failed fsync
// poisons the tree: no acknowledgment may ever follow it.
func (t *Tree) Commit() error {
	if err := t.Poisoned(); err != nil {
		return err
	}
	if t.jnl == nil {
		return nil
	}
	return t.poison(t.jnl.Commit())
}

// Close takes a last checkpoint, compacts the file to one slot per page
// plus the map (see pagestore.Store.Compact) and closes it. The tree must
// be quiescent. A poisoned tree skips both — the on-disk state is already
// unknowable — releases its descriptors, and returns the sticky error.
func (t *Tree) Close() error {
	err := t.Poisoned()
	if err == nil {
		err = t.Sync()
	}
	if err == nil {
		err = t.poison(t.store.Compact())
	}
	if t.jnl != nil {
		if jerr := t.jnl.Close(); err == nil {
			err = jerr
		}
	}
	if serr := t.store.Close(); err == nil {
		err = serr
	}
	return err
}

// Journal exposes the tree's oplog journal for sequence-aware layers
// (replication tails the journal and pins its retention). Nil on a
// non-durable tree.
func (t *Tree) Journal() *journal.Journal { return t.jnl }

// DurabilityStats reports oplog progress on a durable tree: operations
// appended to the active oplog file and durable in it, its size in record
// bytes, and group-commit fsyncs issued. Zeroes on a non-durable tree.
func (t *Tree) DurabilityStats() (appended, synced, oplogBytes, commits int64) {
	if t.jnl == nil {
		return 0, 0, 0, 0
	}
	return t.jnl.Stats()
}

// logOp appends a logical operation to the oplog (durable trees only).
func (t *Tree) logOp(kind journal.OpKind, key int64, val uint64) error {
	if t.jnl == nil || t.replaying {
		return nil
	}
	return t.jnl.Append(journal.Op{Kind: kind, Key: key, Val: val})
}

// Len returns the number of keys.
func (t *Tree) Len() int { return int(t.size.Load()) }

// Height returns the number of levels (1 = a lone leaf root). It reads
// the root's level field; 0 is returned if the root page is unreadable.
func (t *Tree) Height() int {
	n, err := t.rLatch(t.rootID())
	if err != nil {
		return 0
	}
	h := int(n.level)
	t.rUnlatch(n)
	return h
}

// Cap returns the node capacity.
func (t *Tree) Cap() int { return t.cap }

// CacheStats reports buffer-pool hit/miss/eviction counts.
func (t *Tree) CacheStats() CacheStats { return t.cache.statsSnapshot() }

// Stats reports structural counters.
func (t *Tree) Stats() (splits, crossings int64) {
	return t.splits.Load(), t.crossings.Load()
}

// rootID loads the current root page id.
func (t *Tree) rootID() pagestore.PageID { return pagestore.PageID(t.root.Load()) }

// ---------------------------------------------------------------------------
// Latch-by-page helpers. Each returns a pinned node latched in the
// requested mode; release with the matching unlatch.

func (t *Tree) latch(id pagestore.PageID, write bool) (node, error) {
	n, err := t.cache.get(id)
	if err != nil {
		return node{}, err
	}
	if !write {
		n.mu.RLock()
		return n, nil
	}
	n.mu.Lock()
	if n.cut { // the checkpoint in flight still needs what is here
		if err := t.cache.saveCut(n); err != nil {
			t.unlatch(n, true, false)
			return node{}, err
		}
	}
	return n, nil
}

func (t *Tree) unlatch(n node, write, dirty bool) {
	if write {
		n.mu.Unlock()
	} else {
		n.mu.RUnlock()
	}
	t.cache.put(n, dirty)
}

func (t *Tree) rLatch(id pagestore.PageID) (node, error) { return t.latch(id, false) }
func (t *Tree) rUnlatch(n node)                          { t.unlatch(n, false, false) }
func (t *Tree) wLatch(id pagestore.PageID) (node, error) { return t.latch(id, true) }
func (t *Tree) wUnlatch(n node, dirty bool)              { t.unlatch(n, true, dirty) }

// moveRight follows right links, one latch at a time in the mode n is
// held in, until the node covers key.
func (t *Tree) moveRight(n node, key int64, write bool) (node, error) {
	for !n.covers(key) {
		right := n.right
		t.unlatch(n, write, false)
		t.crossings.Add(1)
		var err error
		n, err = t.latch(right, write)
		if err != nil {
			return node{}, err
		}
	}
	return n, nil
}

// stackDepth sizes the on-stack buffer insert hands descend for the
// ancestor page ids; a taller tree spills it to the heap.
const stackDepth = 16

// descend returns the node at the given level covering key — the leaf at
// level 1 — pinned and latched, exclusively when write is set, appending
// the page ids of the ancestors it passed to stack when that is non-nil
// (split repair wants them). The nodes above the target are visited under
// shared latches, one at a time; the walk latches the target directly in
// the mode the operation needs, so each level costs one page access.
func (t *Tree) descend(level int, key int64, write bool, stack []pagestore.PageID) (node, []pagestore.PageID, error) {
	id, at := t.rootID(), 0 // level of page id; 0 = whatever the root's is
	for {
		target := at == level
		n, err := t.latch(id, write && target)
		if err == nil {
			n, err = t.moveRight(n, key, write && target)
		}
		if err != nil {
			return node{}, nil, err
		}
		if int(n.level) == level {
			if target || !write {
				return n, stack, nil
			}
			// A root at the target level met under a shared latch: come
			// back for it exclusively.
			id, at = n.id, level
			t.rUnlatch(n)
			continue
		}
		id, at = n.child(blink.Route(n.keys(), key)), int(n.level)-1
		if stack != nil {
			stack = append(stack, n.id)
		}
		t.rUnlatch(n)
	}
}

// ---------------------------------------------------------------------------
// Public operations.

// Search returns the value stored under key.
func (t *Tree) Search(key int64) (uint64, bool, error) {
	if err := t.Poisoned(); err != nil {
		return 0, false, err
	}
	v, ok, err := t.search(key)
	return v, ok, t.poison(err)
}

func (t *Tree) search(key int64) (uint64, bool, error) {
	n, _, err := t.descend(1, key, false, nil)
	if err != nil {
		return 0, false, err
	}
	i, ok := blink.Find(n.keys(), key)
	var v uint64
	if ok {
		v = n.p[i]
	}
	t.rUnlatch(n)
	return v, ok, nil
}

// Insert stores key→val; a fresh insertion reports true. A storage
// failure poisons the tree: every later operation returns ErrPoisoned.
func (t *Tree) Insert(key int64, val uint64) (bool, error) {
	if err := t.Poisoned(); err != nil {
		return false, err
	}
	ok, err := t.insert(key, val)
	return ok, t.poison(err)
}

func (t *Tree) insert(key int64, val uint64) (bool, error) {
	t.cutMu.RLock()
	defer t.cutMu.RUnlock()
	var buf [stackDepth]pagestore.PageID
	n, stack, err := t.descend(1, key, true, buf[:0])
	if err != nil {
		return false, err
	}
	i, ok := blink.Find(n.keys(), key)
	if ok {
		n.p[i] = val
		t.wUnlatch(n, true)
		return false, t.logOp(journal.OpInsert, key, val)
	}
	t.size.Add(1)
	if err := t.insertItem(n, i, key, i, val, stack); err != nil {
		return false, err
	}
	return true, t.logOp(journal.OpInsert, key, val)
}

// insertItem puts key at index ki and ptr at index pi of the latched,
// pinned node n, splitting bottom-up for as long as the receiving node is
// full, and releases whichever node it ends on.
func (t *Tree) insertItem(n node, ki int, key int64, pi int, ptr uint64, stack []pagestore.PageID) error {
	for n.items() == t.cap {
		sib, sep, err := t.split(n, ki, key, pi, ptr)
		if err != nil {
			t.wUnlatch(n, true)
			return err
		}
		if len(stack) == 0 && t.rootID() == n.id {
			err := t.growRoot(n, sep, sib)
			t.wUnlatch(n, true)
			return err
		}
		level := int(n.level) + 1
		t.wUnlatch(n, true)

		if len(stack) > 0 {
			n, err = t.wLatch(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			if err == nil {
				n, err = t.moveRight(n, sep, true)
			}
		} else {
			// The root grew past the remembered ancestors: find the
			// parent level from the new root.
			n, _, err = t.descend(level, sep, true, nil)
		}
		if err != nil {
			return err
		}
		ki = blink.Route(n.keys(), sep)
		key, pi, ptr = sep, ki+1, uint64(sib)
	}
	n.insert(ki, key, pi, ptr)
	t.wUnlatch(n, true)
	return nil
}

// split inserts an item into the full, latched node n and moves the upper
// half of the result into a fresh page, whose node create hands back
// exclusively latched. The overflowing item list is laid out in scratch
// on the stack, since a slot's storage ends at a full node. The sibling
// is complete in the buffer pool before the right link is published, so
// the release of n's latch orders its contents for every later reader.
func (t *Tree) split(n node, ki int, key int64, pi int, ptr uint64) (pagestore.PageID, int64, error) {
	t.splits.Add(1)
	sib, err := t.cache.create(int(n.level))
	if err != nil {
		return 0, 0, err
	}
	var (
		ks [MaxCap + 1]int64
		ps [MaxCap + 1]uint64
	)
	keys := append(append(append(ks[:0], n.keys()[:ki]...), key), n.keys()[ki:]...)
	ptrs := append(append(append(ps[:0], n.ptrs()[:pi]...), ptr), n.ptrs()[pi:]...)
	m := (len(ptrs) + 1) / 2
	var sep int64
	if n.isLeaf() {
		sep = keys[m]
		n.set(keys[:m], ptrs[:m])
	} else {
		sep = keys[m-1]
		n.set(keys[:m-1], ptrs[:m])
	}
	sib.set(keys[m:], ptrs[m:])
	sib.high, sib.hasHigh = n.high, n.hasHigh
	sib.right = n.right
	sibID := sib.id
	t.wUnlatch(sib, true)
	n.right = sibID
	n.high, n.hasHigh = sep, true
	return sibID, sep, nil
}

// growRoot installs a new root above the split old root (whose pinned,
// latched node the caller passes, having verified it is still the root).
func (t *Tree) growRoot(old node, sep int64, sib pagestore.PageID) error {
	root, err := t.cache.create(int(old.level) + 1)
	if err != nil {
		return err
	}
	root.set([]int64{sep}, []uint64{uint64(old.id), uint64(sib)})
	id := root.id
	t.wUnlatch(root, true)
	if !t.root.CompareAndSwap(uint64(old.id), uint64(id)) {
		panic("diskbtree: concurrent root replacement")
	}
	return nil
}

// Delete removes key, reporting whether it was present. Emptied leaves
// stay in place (lazy merge-at-empty). A storage failure poisons the
// tree: every later operation returns ErrPoisoned.
func (t *Tree) Delete(key int64) (bool, error) {
	if err := t.Poisoned(); err != nil {
		return false, err
	}
	ok, err := t.del(key)
	return ok, t.poison(err)
}

func (t *Tree) del(key int64) (bool, error) {
	t.cutMu.RLock()
	defer t.cutMu.RUnlock()
	n, _, err := t.descend(1, key, true, nil)
	if err != nil {
		return false, err
	}
	i, ok := blink.Find(n.keys(), key)
	if !ok {
		t.wUnlatch(n, false)
		return false, nil
	}
	n.remove(i)
	t.size.Add(-1)
	t.wUnlatch(n, true)
	return true, t.logOp(journal.OpDelete, key, 0)
}
