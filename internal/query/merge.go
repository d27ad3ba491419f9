package query

// ShardFetch is one shard's contribution to the current page: up to the
// page limit of entries starting at that shard's cursor, plus whether
// the shard had further entries in range beyond the last one fetched.
type ShardFetch struct {
	Entries []KV
	More    bool
}

// MergePage merges the per-shard fetches of one page into the globally
// ordered page and advances the per-shard cursors in place, returning
// the page (appended to dst) and whether the whole range [*, hi) is now
// exhausted (no token needed).
//
// Contract: fetches[i] holds shard i's entries with keys >= cursors[i],
// in ascending order, fetched with the SAME limit as this page; keys are
// disjoint across shards (hash partitioning). A shard whose cursor had
// already reached hi contributes an empty fetch with More=false.
//
// Correctness of the cursor advance: let B be the last key emitted. Every
// key <= B on every shard has been emitted — if shard s held an unfetched
// key k <= B, then s returned `limit` entries all < k <= B, and those
// alone fill the page, contradicting B being emitted after them. So each
// shard's next cursor may safely skip to its first unemitted fetched
// entry; a shard whose fetch was fully emitted resumes at its last
// fetched key + 1 when it had more, and is exhausted (cursor = hi)
// otherwise. The +1 cannot overflow: every fetched key is < hi <=
// MaxInt64.
func MergePage(fetches []ShardFetch, cursors []int64, hi int64, limit int, dst []KV) (page []KV, done bool) {
	n := len(fetches)
	var room [8]int // next unemitted entry per shard; wider fan-outs spill to the heap
	pos := room[:]
	if n > len(room) {
		pos = make([]int, n)
	}
	page = dst
	for len(page)-len(dst) < limit {
		best := -1
		for i := 0; i < n; i++ {
			if pos[i] >= len(fetches[i].Entries) {
				continue
			}
			if best < 0 || fetches[i].Entries[pos[i]].Key < fetches[best].Entries[pos[best]].Key {
				best = i
			}
		}
		if best < 0 {
			break
		}
		page = append(page, fetches[best].Entries[pos[best]])
		pos[best]++
	}
	done = true
	for i := 0; i < n; i++ {
		switch {
		case pos[i] < len(fetches[i].Entries):
			cursors[i] = fetches[i].Entries[pos[i]].Key
		case fetches[i].More:
			cursors[i] = fetches[i].Entries[len(fetches[i].Entries)-1].Key + 1
		default:
			cursors[i] = hi
		}
		if cursors[i] < hi {
			done = false
		}
	}
	return page, done
}
