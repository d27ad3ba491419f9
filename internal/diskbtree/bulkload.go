package diskbtree

import (
	"cmp"
	"fmt"

	"btreeperf/internal/blink"
	"btreeperf/internal/pagestore"
)

// BulkLoad creates a tree file at path and builds it bottom-up from
// sorted data with the given fill factor — the fast path for loading
// large datasets. The file must not already contain a tree. keys must be
// strictly increasing and parallel to vals; fill in (0, 1]. The returned
// tree is synced and ready for concurrent use.
func BulkLoad(path string, opts Options, keys []int64, vals []uint64, fill float64) (*Tree, error) {
	per, err := blink.BulkFill(cmp.Or(opts.Cap, defaultCap), keys, vals, fill)
	if err != nil {
		return nil, fmt.Errorf("diskbtree: %w", err)
	}
	t, err := Open(path, opts)
	if err != nil {
		return nil, err
	}
	if t.Len() != 0 || len(keys) == 0 {
		if t.Len() != 0 {
			t.Close()
			return nil, fmt.Errorf("diskbtree: BulkLoad target already holds %d keys", t.Len())
		}
		return t, nil
	}

	// The tree goes onto fresh pages of the open file, past the pool: no
	// page of it is cached yet, and the empty root Open made stays in the
	// map, unreferenced (a page of slack: page ids are never handed back).
	b := &imageBuilder{store: t.store, per: per}
	err = b.addRun(keys, vals)
	var root pagestore.PageID
	if err == nil {
		root, err = b.flushSpine()
	}
	if err == nil {
		t.root.Store(uint64(root))
		t.size.Store(int64(len(keys)))
		err = t.Sync()
	}
	if err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// pendingNode is a node of the build still accepting entries: its page
// id is pre-allocated so the previous node of the level can point its
// right link here before being written. One pendingNode serves a level
// for the whole build: sealing writes its page out and restarts it, in
// place, as its own successor.
type pendingNode struct {
	n   node
	id  pagestore.PageID
	min int64
}

// imageBuilder streams strictly ascending key/value pairs into a compact
// bottom-up B⁺-tree on pages it allocates from store, the file of an
// empty tree being bulk-loaded. levels[0] is the leaf level; a node is
// written out the moment its successor on the level materializes
// (resolving its right link and high key), so memory use is one pending
// node per level and one page buffer.
type imageBuilder struct {
	store  *pagestore.Store
	per    int // items a node is filled to
	levels []*pendingNode
	page   [pagestore.PageSize]byte // every node is encoded and written from here
}

// level returns the pending node at level index lvl, starting the level
// (with min as its first node's minimum) when the build first reaches it.
func (b *imageBuilder) level(lvl int, min int64) (*pendingNode, error) {
	if lvl < len(b.levels) {
		return b.levels[lvl], nil
	}
	id, err := b.store.Allocate()
	if err != nil {
		return nil, err
	}
	p := &pendingNode{n: newNode(lvl+1, b.per), id: id, min: min}
	b.levels = append(b.levels, p)
	return p, nil
}

// write encodes n into the builder's page buffer and writes it as page id.
func (b *imageBuilder) write(id pagestore.PageID, n node) error {
	n.encode(b.page[:])
	return b.store.WritePage(id, b.page[:])
}

// addRun appends the next keys of the ascending stream, a leaf-sized
// piece at a time.
func (b *imageBuilder) addRun(keys []int64, vals []uint64) error {
	for len(keys) > 0 {
		p, err := b.level(0, keys[0])
		if err != nil {
			return err
		}
		if p.n.items() == b.per {
			if err := b.seal(0, keys[0]); err != nil {
				return err
			}
		}
		at := p.n.items()
		k := copy(p.n.k[at:b.per], keys)
		copy(p.n.p[at:], vals[:k])
		p.n.n += uint16(k)
		keys, vals = keys[k:], vals[k:]
	}
	return nil
}

// seal writes out the pending node at level index lvl — right link to a
// freshly allocated successor, high key = the successor's minimum —
// promotes its (id, min) into the parent level, and restarts it as that
// successor.
func (b *imageBuilder) seal(lvl int, nextMin int64) error {
	p := b.levels[lvl]
	next, err := b.store.Allocate()
	if err != nil {
		return err
	}
	p.n.right = next
	p.n.high, p.n.hasHigh = nextMin, true
	if err := b.write(p.id, p.n); err != nil {
		return err
	}
	if err := b.promote(lvl+1, p.id, p.min); err != nil {
		return err
	}
	p.n.reset(int(p.n.level))
	p.id, p.min = next, nextMin
	return nil
}

// promote registers a finished child in the pending parent at level
// index lvl, creating or sealing the parent as needed.
func (b *imageBuilder) promote(lvl int, childID pagestore.PageID, childMin int64) error {
	p, err := b.level(lvl, childMin)
	if err != nil {
		return err
	}
	if p.n.items() == b.per {
		if err := b.seal(lvl, childMin); err != nil {
			return err
		}
	}
	if at := p.n.items(); at > 0 {
		p.n.k[at-1] = childMin
	}
	p.n.p[p.n.n] = uint64(childID)
	p.n.n++
	return nil
}

// flushSpine writes out the pending spine bottom-up (each pending node
// is the rightmost of its level: right link 0, infinite high key) and
// returns the root's page.
func (b *imageBuilder) flushSpine() (pagestore.PageID, error) {
	if len(b.levels) == 0 {
		// Empty tree: a lone empty leaf root, like a fresh Open.
		id, err := b.store.Allocate()
		if err != nil {
			return 0, err
		}
		return id, b.write(id, newNode(1, 0))
	}
	for lvl := 0; ; lvl++ {
		p := b.levels[lvl]
		if err := b.write(p.id, p.n); err != nil {
			return 0, err
		}
		if lvl == len(b.levels)-1 {
			return p.id, nil
		}
		// May seal a full parent and grow the spine; the loop bound
		// is re-read each iteration.
		if err := b.promote(lvl+1, p.id, p.min); err != nil {
			return 0, err
		}
	}
}
