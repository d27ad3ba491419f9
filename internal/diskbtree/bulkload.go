package diskbtree

import (
	"fmt"

	"btreeperf/internal/pagestore"
)

// BulkLoad creates a tree file at path and builds it bottom-up from
// sorted data with the given fill factor — the fast path for loading
// large datasets. The file must not already contain a tree. keys must be
// strictly increasing and parallel to vals; fill in (0, 1]. The returned
// tree is synced and ready for concurrent use.
func BulkLoad(path string, opts Options, keys []int64, vals []uint64, fill float64) (*Tree, error) {
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("diskbtree: %d keys but %d values", len(keys), len(vals))
	}
	if fill <= 0 || fill > 1 {
		return nil, fmt.Errorf("diskbtree: fill factor %v outside (0, 1]", fill)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return nil, fmt.Errorf("diskbtree: keys not strictly increasing at index %d", i)
		}
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
	// page of it is cached yet, and the empty root Open made stays where
	// it is, unreferenced (a page of slack; the pool may hold its slot,
	// so the page cannot be handed back).
	b := newImageBuilder(t.store, t.cap, int(fill*float64(t.cap)))
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
