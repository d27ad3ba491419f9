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

	per := int(fill * float64(t.cap))
	if per < 2 {
		per = 2
	}

	type built struct {
		id  pagestore.PageID
		min int64
	}
	// emit creates the next node of a level, filled by fill, and returns
	// its page id; the previous node of the level gets its right link and
	// high key now that its successor exists.
	prevOnLevel := make(map[int]pagestore.PageID) // last emitted page per level
	emit := func(level int, min int64, keys []int64, ptrs []uint64) (pagestore.PageID, error) {
		n, err := t.cache.create(level)
		if err != nil {
			return 0, err
		}
		n.set(keys, ptrs)
		id := n.id
		t.wUnlatch(n, true)
		if prev, ok := prevOnLevel[level]; ok {
			pn, err := t.wLatch(prev)
			if err != nil {
				return 0, err
			}
			pn.right = id
			pn.high, pn.hasHigh = min, true
			t.wUnlatch(pn, true)
		}
		prevOnLevel[level] = id
		return id, nil
	}

	var level []built
	for off := 0; off < len(keys); off += per {
		end := min(off+per, len(keys))
		id, err := emit(1, keys[off], keys[off:end], vals[off:end])
		if err != nil {
			t.Close()
			return nil, err
		}
		level = append(level, built{id: id, min: keys[off]})
	}

	for h := 2; len(level) > 1; h++ {
		var parents []built
		for off := 0; off < len(level); off += per {
			end := min(off+per, len(level))
			var seps []int64
			var children []uint64
			for j := off; j < end; j++ {
				children = append(children, uint64(level[j].id))
				if j > off {
					seps = append(seps, level[j].min)
				}
			}
			id, err := emit(h, level[off].min, seps, children)
			if err != nil {
				t.Close()
				return nil, err
			}
			parents = append(parents, built{id: id, min: level[off].min})
		}
		level = parents
	}

	// The original empty root leaf from Open is abandoned (merge-at-empty
	// lazily leaks it; a page of slack is acceptable for a fresh load).
	t.root.Store(uint64(level[0].id))
	t.size.Store(int64(len(keys)))
	if err := t.Sync(); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}
