package server

import (
	"math"

	"btreeperf/internal/query"
)

// Query-op execution. Scans, seeks, and lookups are cross-shard
// operations: the keyspace is hash-partitioned, so a contiguous key
// range has entries on every shard and one page is a per-shard fan-out
// plus an ordered k-way merge. A query job therefore has no home shard
// by key; the connection reader deals query jobs round-robin across
// shards (spreading the merge work), and the executing worker reads
// every shard's engine directly — engines are concurrent-reader-safe
// (the cbtree by construction, the disk engine under its RWMutex), so no
// cross-shard coordination is needed beyond the engines' own latches.
//
// Paging is stateless: the continuation token encodes one cursor per
// shard (see internal/query), so the server keeps nothing between pages
// and a token can be replayed against any connection. The governor never
// sheds query ops — they are read traffic and do not drive root ρ_w the
// way updates do.

// isQueryOp reports whether op answers with the page wire shape. OpSeqs
// rides the query path because it too is cross-shard (one entry per
// shard) and page-shaped.
func isQueryOp(op byte) bool {
	return op == OpScan || op == OpSeek || op == OpLookup || op == OpSeqs
}

// badPage is the page-shaped StatusBadRequest (malformed token, lookup
// without an index): page-shaped so pipelined clients parsing by sent-op
// shape never desynchronize.
func badPage() Response {
	return Response{Status: StatusBadRequest, Page: true}
}

// queryCursors resolves a query op's starting cursors into the worker's
// scratch: all lo on the first page, the token's cursors afterwards. A
// token that fails to decode, carries the wrong shard count, or places a
// cursor outside [lo, hi] is a bad request.
func (s *Server) queryCursors(w *worker, tok []byte, lo, hi int64) ([]int64, bool) {
	w.cursors = w.cursors[:0]
	if len(tok) == 0 {
		for range s.shards {
			w.cursors = append(w.cursors, lo)
		}
		return w.cursors, true
	}
	var err error
	if w.cursors, err = query.AppendCursors(w.cursors, tok); err != nil || len(w.cursors) != len(s.shards) {
		return nil, false
	}
	for _, c := range w.cursors {
		if c < lo || c > hi {
			return nil, false
		}
	}
	return w.cursors, true
}

// mergePage merges the worker's per-shard fetches into the batch's page
// arena, advancing cursors, and cuts the page response — its entries and,
// unless the range is exhausted, its token — out of the arena.
func (w *worker) mergePage(cursors []int64, hi int64, limit int) Response {
	a := w.arena
	e0, t0 := len(a.ents), len(a.tok)
	var done bool
	a.ents, done = query.MergePage(w.fetches, cursors, hi, limit, a.ents)
	resp := Response{Status: StatusOK, Page: true}
	if e1 := len(a.ents); e1 > e0 {
		resp.Entries = a.ents[e0:e1:e1]
	}
	if !done {
		a.tok = query.EncodeToken(a.tok, cursors)
		resp.Token = a.tok[t0:len(a.tok):len(a.tok)]
	}
	return resp
}

// clampLimit resolves a request's page limit.
func clampLimit(limit int) int {
	switch {
	case limit <= 0:
		return DefaultScanLimit
	case limit > MaxScanLimit:
		return MaxScanLimit
	default:
		return limit
	}
}

// execScan serves one page of [req.Key, req.Hi): fetch up to limit
// entries per shard from that shard's cursor, merge the globally
// smallest limit of them, and re-encode the advanced cursors as the next
// token (empty when the range is exhausted).
func (s *Server) execScan(req Request, w *worker, t *opTally) Response {
	lo, hi := req.Key, req.Hi
	if hi <= lo {
		t[cScans]++
		return Response{Status: StatusOK, Page: true} // empty range: OK, zero entries, no token
	}
	limit := clampLimit(req.Limit)
	cursors, ok := s.queryCursors(w, req.Token, lo, hi)
	if !ok {
		t[cBad]++
		return badPage()
	}
	t[cScans]++
	ents, fetches := w.ents[:0], w.fetches[:0]
	for i, sh := range s.shards {
		var f query.ShardFetch // stays empty when this shard's range is already exhausted
		if cursors[i] < hi {
			from := len(ents)
			var err error
			if ents, f.More, err = sh.eng.Scan(cursors[i], hi, limit, ents); err != nil {
				t[cUnavail]++
				return Response{Status: StatusUnavail, Page: true}
			}
			f.Entries = ents[from:]
		}
		fetches = append(fetches, f)
	}
	w.ents, w.fetches = ents, fetches
	resp := w.mergePage(cursors, hi, limit)
	t[cScanKeys] += int64(len(resp.Entries))
	return resp
}

// execSeek answers the smallest stored key >= req.Key as a page of at
// most one entry: the per-shard minimum of a limit-1 scan to +inf.
func (s *Server) execSeek(req Request, w *worker, t *opTally) Response {
	t[cSeeks]++
	var best query.KV
	found := false
	for _, sh := range s.shards {
		ents, _, err := sh.eng.Scan(req.Key, math.MaxInt64, 1, w.ents[:0])
		w.ents = ents
		if err != nil {
			t[cUnavail]++
			return Response{Status: StatusUnavail, Page: true}
		}
		if len(ents) > 0 && (!found || ents[0].Key < best.Key) {
			best, found = ents[0], true
		}
	}
	resp := Response{Status: StatusOK, Page: true}
	if found {
		a := w.arena
		a.ents = append(a.ents, best)
		n := len(a.ents)
		resp.Entries = a.ents[n-1 : n : n]
		t[cScanKeys]++
	}
	return resp
}

// execLookup serves one page of the primary keys whose indexed value is
// req.Val, ascending, with the same per-shard cursor/merge machinery as
// scans — the cursors range over the primary-key space. Answering
// StatusBadRequest on an index-less server (rather than an empty OK
// page) keeps "no index" distinguishable from "value not present"; a
// poisoned engine on any shard answers StatusUnavail, like every other
// op that would have read it.
func (s *Server) execLookup(req Request, w *worker, t *opTally) Response {
	if s.shards[0].idx == nil {
		t[cBad]++
		return badPage()
	}
	const hi = math.MaxInt64 // lookups page over the full primary-key space
	limit := clampLimit(req.Limit)
	cursors, ok := s.queryCursors(w, req.Token, math.MinInt64, hi)
	if !ok {
		t[cBad]++
		return badPage()
	}
	t[cLookups]++
	for _, sh := range s.shards {
		if sh.eng.Poisoned() != nil {
			// The index is read without touching the engine: it may be a
			// partial rebuild, and it stopped following the tree when the
			// engine failed.
			t[cUnavail]++
			return Response{Status: StatusUnavail, Page: true}
		}
	}
	ents, fetches := w.ents[:0], w.fetches[:0]
	for i, sh := range s.shards {
		var f query.ShardFetch
		if cursors[i] < hi {
			from := len(ents)
			w.keys, f.More = sh.idx.Lookup(req.Val, cursors[i], limit, w.keys[:0])
			for _, k := range w.keys {
				ents = append(ents, query.KV{Key: k, Val: req.Val})
			}
			f.Entries = ents[from:]
		}
		fetches = append(fetches, f)
	}
	w.ents, w.fetches = ents, fetches
	resp := w.mergePage(cursors, hi, limit)
	t[cLookupKeys] += int64(len(resp.Entries))
	return resp
}

// execSeqs answers the replication sequence probe: one page entry per
// shard, key = shard index, value = that shard's sequence (applied on a
// follower, durable on a journal-backed leader, zero on an unreplicated
// in-memory server). Clients use it to learn the shard count and to
// measure follower lag; failover uses it to pick the most-caught-up
// follower. Tallied as a ping — it is a meta op, not key traffic.
func (s *Server) execSeqs(t *opTally) Response {
	t[cPings]++
	ents := make([]query.KV, len(s.shards))
	for i := range s.shards {
		ents[i] = query.KV{Key: int64(i), Val: uint64(s.shardSeq(i))}
	}
	return Response{Status: StatusOK, Page: true, Entries: ents}
}

// rebuildIndexes scans every shard's (already recovered and prefilled)
// engine into its secondary index before the server takes traffic. The
// index needs no journal of its own: it is a pure function of the
// primary tree, whose oplog already made these entries durable, so
// kill -9 consistency is inherited from primary recovery.
func (s *Server) rebuildIndexes() error {
	for _, sh := range s.shards {
		err := sh.scanAll(func(ents []query.KV) error {
			for _, e := range ents {
				sh.idx.Add(e.Key, e.Val)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
