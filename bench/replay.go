package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"btreeperf/internal/cbtree"
	"btreeperf/internal/diskbtree"
	"btreeperf/internal/journal"
	"btreeperf/internal/lock"
	"btreeperf/internal/pagestore"
	"btreeperf/internal/query"
	"btreeperf/internal/server"
	"btreeperf/internal/workload"
)

// The layer replay feeds the first replayOps requests of the workload's
// own stream (the ones the served run's warm-up sends) straight into each
// layer's public functions, once single-threaded — there every count
// repeats exactly from run to run — and, for the layers that synchronise,
// once from two goroutines.
const (
	replayOps   = 300000 // per workload, both connections together
	replayPages = 20000  // scan pages for the range and query replays
)

// countFS counts the file I/O under a disk tree or a journal. It is the
// benchmark's own shim over pagestore.OSFS: the layers are not edited.
type countFS struct {
	reads, writes, writeBytes, syncs atomic.Int64
}

type countFile struct {
	pagestore.File
	fs *countFS
}

func (fs *countFS) OpenFile(name string, flag int, perm os.FileMode) (pagestore.File, error) {
	f, err := pagestore.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: fs}, nil
}

func (fs *countFS) Rename(oldpath, newpath string) error {
	return pagestore.OSFS.Rename(oldpath, newpath)
}

func (fs *countFS) Remove(name string) error { return os.Remove(name) }

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.reads.Add(1)
	return f.File.ReadAt(p, off)
}

func (f *countFile) Read(p []byte) (int, error) {
	f.fs.reads.Add(1)
	return f.File.Read(p)
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.writes.Add(1)
	f.fs.writeBytes.Add(int64(len(p)))
	return f.File.WriteAt(p, off)
}

func (f *countFile) Write(p []byte) (int, error) {
	f.fs.writes.Add(1)
	f.fs.writeBytes.Add(int64(len(p)))
	return f.File.Write(p)
}

func (f *countFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// replay is the state of one workload's layer replay.
type replay struct {
	sp      *spec
	scale   int
	dir     string
	rec     *recorder
	streams [conns][]pendingOp // each connection's wire requests
	merged  []pendingOp        // the two streams interleaved op by op
	anchors []int64            // scan anchors: the first replayPages request keys
	clockNs float64            // cost of one clock read
	out     map[string]float64 // metric name -> value
	counts  []string           // exact counts, printed so two runs can be diffed
}

func (rp *replay) count(name string, n int64) {
	rp.counts = append(rp.counts, fmt.Sprintf("%s=%d", name, n))
}

// perCall returns the mean of cs in nanoseconds, less the clock's own cost.
func (rp *replay) perCall(cs *callStat) float64 {
	if cs.n == 0 {
		return 0
	}
	return max(float64(cs.ns)-rp.clockNs*float64(cs.timed), 0) / float64(cs.n)
}

func mallocs() (n, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// newReplay regenerates the head of the stream the served run sent and
// times the generator while doing so.
func newReplay(o options, rec *recorder) (*replay, error) {
	rp := &replay{sp: o.sp, scale: o.scale, rec: rec, out: map[string]float64{}}
	var err error
	if rp.dir, err = os.MkdirTemp(o.outDir, "replay-"); err != nil {
		return nil, err
	}

	const probes = 1 << 20
	t0 := nowNs()
	for i := 0; i < probes; i++ {
		nowNs()
		nowNs()
	}
	// An interval between two clock reads holds about one read's cost.
	rp.clockNs = float64(nowNs()-t0) / (2 * probes)

	gens, err := o.sp.generators(o.seed, prefill/o.scale)
	if err != nil {
		rp.close()
		return nil, err
	}
	per := max(replayOps/o.scale/conns, burstSize)
	root, end := rec.begin("replay.workload")
	next := rec.call(root, "replay.workload.next")
	for c, gen := range gens {
		lc := &loadConn{idx: c, sp: o.sp}
		rp.streams[c] = make([]pendingOp, per)
		for i := range rp.streams[c] {
			t0 := nowNs()
			op, k := gen.Next()
			t1 := nowNs()
			rec.observe(next, t0, t1)
			rp.streams[c][i] = lc.request(op, k)
		}
	}
	end()
	rp.out["workload.gen_ns_per_op"] = rp.perCall(next)
	for i := 0; i < per; i++ {
		for c := range rp.streams {
			rp.merged = append(rp.merged, rp.streams[c][i])
		}
	}
	for _, p := range rp.merged[:min(len(rp.merged), max(replayPages/o.scale, 64))] {
		rp.anchors = append(rp.anchors, p.key)
	}
	return rp, nil
}

func (rp *replay) close() { os.RemoveAll(rp.dir) }

// protocol replays the wire codec: every request is encoded, decoded the
// way the server's connection reader decodes it, and answered with an
// encoded response the way the connection writer does.
func (rp *replay) protocol() error {
	var wire []byte
	for _, p := range rp.merged {
		wire = server.AppendRequest(wire, p.wire(rp.sp))
	}
	br := bufio.NewReaderSize(bytes.NewReader(wire), 32<<10)
	buf := make([]byte, server.MaxPayload)
	// A scan is answered with a full page; a burst of full pages fits out.
	out := make([]byte, 0, 128<<10)
	page := make([]query.KV, scanLimitOf(rp.sp))
	root, end := rp.rec.begin("replay.protocol")
	read := rp.rec.call(root, "replay.protocol.read_request")
	app := rp.rec.call(root, "replay.protocol.append_response")
	runtime.GC()
	m0, _ := mallocs()
	// One burst at a time, the way a connection sees them: decode
	// burstSize requests, then encode their burstSize responses.
	var reqs [burstSize]server.Request
	for lo := 0; lo < len(rp.merged); lo += burstSize {
		n := min(burstSize, len(rp.merged)-lo)
		t0 := nowNs()
		for i := 0; i < n; i++ {
			var err error
			if reqs[i], err = server.ReadRequest(br, buf); err != nil {
				return fmt.Errorf("replay protocol: %w", err)
			}
		}
		t1 := nowNs()
		out = out[:0]
		for _, req := range reqs[:n] {
			resp := server.Response{Status: server.StatusOK, HasVal: req.Op == server.OpGet, Val: uint64(req.Key)}
			if req.Op == server.OpScan {
				resp = server.Response{Status: server.StatusOK, Page: true, Entries: page}
			}
			out = server.AppendResponse(out, resp)
		}
		t2 := nowNs()
		rp.rec.observeBlock(read, n, t0, t1)
		rp.rec.observeBlock(app, n, t1, t2)
	}
	m1, _ := mallocs()
	end()
	rp.out["protocol.read_req_ns"] = rp.perCall(read)
	rp.out["protocol.append_resp_ns"] = rp.perCall(app)
	rp.out["protocol.allocs_per_op"] = float64(m1-m0) / float64(len(rp.merged))
	rp.count("protocol.mallocs", int64(m1-m0))
	return nil
}

// memAlg is the algorithm the in-memory layers replay under: the
// workload's own, or link-type for the disk workload, whose tree is a
// link-type tree too.
func (rp *replay) memAlg() cbtree.Algorithm {
	if rp.sp.disk {
		return cbtree.LinkType
	}
	return rp.sp.alg
}

func (rp *replay) newTree(shard, shards int) *cbtree.Tree {
	t := cbtree.New(64, rp.memAlg())
	for i := 0; i < prefill/rp.scale; i++ {
		if k := prefillKey(i); shards == 1 || int(uint64(k)>>1%uint64(shards)) == shard {
			t.Insert(k, uint64(i))
		}
	}
	return t
}

func scanLimitOf(sp *spec) int {
	if sp.scanLimit > 0 {
		return sp.scanLimit
	}
	return server.DefaultScanLimit
}

// rangeInto reads one page of [lo, lo+scanSpan) from t, the way the
// in-memory engine's Scan does.
func rangeInto(t *cbtree.Tree, lo int64, limit int, dst []query.KV) ([]query.KV, bool) {
	more := false
	t.Range(lo, lo+scanSpan-1, func(k int64, v uint64) bool {
		if len(dst) == limit {
			more = true
			return false
		}
		dst = append(dst, query.KV{Key: k, Val: v})
		return true
	})
	return dst, more
}

// cbtree replays the stream into one in-memory tree: every op timed by
// kind, splits and allocations counted, then range pages, then an
// insert-only tail for bytes per insert, then the same streams from two
// goroutines on a second tree.
func (rp *replay) cbtree() {
	t := rp.newTree(0, 1)
	root, end := rp.rec.begin("replay.cbtree")
	calls := map[workload.Op]*callStat{
		workload.Search: rp.rec.call(root, "replay.cbtree.search"),
		workload.Insert: rp.rec.call(root, "replay.cbtree.insert"),
		workload.Delete: rp.rec.call(root, "replay.cbtree.delete"),
	}
	rng := rp.rec.call(root, "replay.cbtree.range")
	limit := scanLimitOf(rp.sp)
	page := make([]query.KV, 0, limit)

	runtime.GC()
	s0 := t.Stats()
	m0, _ := mallocs()
	for _, p := range rp.merged {
		t0 := nowNs()
		switch p.op {
		case workload.Search:
			t.Search(p.key)
		case workload.Insert:
			t.Insert(p.key, p.val)
		case workload.Delete:
			t.Delete(p.key)
		default:
			continue // scans are replayed below, page by page
		}
		rp.rec.observe(calls[p.op], t0, nowNs())
	}
	m1, _ := mallocs()
	s1 := t.Stats()
	n := float64(calls[workload.Search].n + calls[workload.Insert].n + calls[workload.Delete].n)

	var keys int64
	for _, lo := range rp.anchors {
		t0 := nowNs()
		page, _ = rangeInto(t, lo, limit, page[:0])
		rp.rec.observe(rng, t0, nowNs())
		keys += int64(len(page))
	}

	// Bytes per insert: fresh keys only, so every call grows a leaf.
	tail := min(len(rp.merged), 50000)
	_, b0 := mallocs()
	for i := 0; i < tail; i++ {
		t.Insert(int64(keySpace)+int64(i)*7919, uint64(i))
	}
	_, b1 := mallocs()
	end()

	rp.out["cbtree.search_ns"] = rp.perCall(calls[workload.Search])
	rp.out["cbtree.insert_ns"] = rp.perCall(calls[workload.Insert])
	rp.out["cbtree.delete_ns"] = rp.perCall(calls[workload.Delete])
	rp.out["cbtree.range_ns_per_key"] = max(float64(rng.ns)-rp.clockNs*float64(rng.n), 0) / float64(max(keys, 1))
	rp.out["cbtree.alloc_b_per_insert"] = float64(b1-b0) / float64(tail)
	rp.out["cbtree.allocs_per_op"] = float64(m1-m0) / n
	rp.out["cbtree.splits_per_kop"] = float64(s1.Splits-s0.Splits) / n * 1000
	// The tree grew from empty by inserts alone, so every node but the
	// first came from a split or from a new root above one.
	st := t.Stats()
	rp.out["cbtree.nodes_per_kkey"] = float64(1+st.Splits+int64(t.Height()-1)) / float64(t.Len()) * 1000
	rp.out["cbtree.height"] = float64(t.Height())
	rp.count("cbtree.mallocs", int64(m1-m0))
	rp.count("cbtree.splits", s1.Splits-s0.Splits)
	rp.count("cbtree.range_keys", keys)

	// Two goroutines, one connection's stream each, on a fresh tree.
	t2 := rp.newTree(0, 1)
	root2, end2 := rp.rec.begin("replay.cbtree.par2")
	var wg sync.WaitGroup
	t0 := nowNs()
	for c := range rp.streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range rp.streams[c] {
				switch p.op {
				case workload.Search:
					t2.Search(p.key)
				case workload.Insert:
					t2.Insert(p.key, p.val)
				case workload.Delete:
					t2.Delete(p.key)
				}
			}
		}()
	}
	wg.Wait()
	t1 := nowNs()
	end2()
	par := rp.rec.call(root2, "replay.cbtree.par2.stream")
	par.n, par.ns = int64(len(rp.merged)), t1-t0
	rp.out["cbtree.par2_ns_per_op"] = float64(t1-t0) / float64(len(rp.merged))
}

// locks replays the stream's read/write pattern onto one FCFS lock and one
// version lock: a search takes the lock shared, a mutation exclusive.
func (rp *replay) locks() {
	var mu lock.FCFSRWMutex
	var vl lock.VersionLock
	root, end := rp.rec.begin("replay.lock")
	rl := rp.rec.call(root, "replay.lock.fcfs_rlock")
	wl := rp.rec.call(root, "replay.lock.fcfs_wlock")
	vr := rp.rec.call(root, "replay.lock.version_read")
	// A burst at a time: its mutations' exclusive acquisitions, then its
	// reads' shared ones, then the reads' version validations.
	for lo := 0; lo < len(rp.merged); lo += burstSize {
		block := rp.merged[lo:min(lo+burstSize, len(rp.merged))]
		writes := 0
		for _, p := range block {
			if p.op == workload.Insert || p.op == workload.Delete {
				writes++
			}
		}
		reads := len(block) - writes
		t0 := nowNs()
		for i := 0; i < writes; i++ {
			mu.Lock()
			mu.Unlock()
		}
		t1 := nowNs()
		for i := 0; i < reads; i++ {
			mu.RLock()
			mu.RUnlock()
		}
		t2 := nowNs()
		valid := true
		for i := 0; i < reads; i++ {
			v, ok := vl.ReadBegin()
			valid = valid && ok && vl.Validate(v)
		}
		t3 := nowNs()
		if !valid {
			panic("bench: version lock invalid with no writer")
		}
		vl.LockV()
		vl.UnlockV()
		rp.rec.observeBlock(wl, writes, t0, t1)
		rp.rec.observeBlock(rl, reads, t1, t2)
		rp.rec.observeBlock(vr, reads, t2, t3)
	}
	end()
	rp.out["lock.fcfs_rlock_ns"] = rp.perCall(rl)
	rp.out["lock.fcfs_wlock_ns"] = rp.perCall(wl)
	rp.out["lock.version_read_ns"] = rp.perCall(vr)
}

// query replays scan pages over two hash shards: per-shard range fetches,
// the k-way page merge, and the continuation token round trip.
func (rp *replay) query() error {
	const shards = 2
	trees := make([]*cbtree.Tree, shards)
	for i := range trees {
		trees[i] = rp.newTree(i, shards)
	}
	limit := scanLimitOf(rp.sp)
	root, end := rp.rec.begin("replay.query")
	merge := rp.rec.call(root, "replay.query.merge_page")
	token := rp.rec.call(root, "replay.query.token")
	fetches := make([]query.ShardFetch, shards)
	cursors := make([]int64, shards)
	var keys int64
	runtime.GC()
	m0, _ := mallocs()
	for _, lo := range rp.anchors {
		for i, t := range trees {
			fetches[i].Entries, fetches[i].More = rangeInto(t, lo, limit, fetches[i].Entries[:0])
			cursors[i] = lo
		}
		t0 := nowNs()
		page, done := query.MergePage(fetches, cursors, lo+scanSpan, limit, nil)
		t1 := nowNs()
		rp.rec.observe(merge, t0, t1)
		keys += int64(len(page))
		if done {
			continue
		}
		t0 = nowNs()
		tok := query.EncodeToken(nil, cursors)
		dec, err := query.DecodeToken(tok)
		t1 = nowNs()
		if err != nil || len(dec) != shards {
			return fmt.Errorf("replay query: token round trip: %v", err)
		}
		rp.rec.observe(token, t0, t1)
	}
	m1, _ := mallocs()
	end()
	pages := float64(len(rp.anchors))
	rp.out["query.merge_ns_per_page"] = rp.perCall(merge)
	rp.out["query.token_ns"] = rp.perCall(token)
	rp.out["query.allocs_per_page"] = float64(m1-m0) / pages
	rp.out["query.keys_per_page"] = float64(keys) / pages
	rp.count("query.mallocs", int64(m1-m0))
	rp.count("query.keys", keys)
	return nil
}

// diskTree replays the stream into a bulk-loaded, non-durable disk tree
// at two buffer-pool sizes: one that holds the whole tree (.fit) and the
// workload's, a fifth of it (.spill). The spill run also yields the cache
// and page-I/O counts.
func (rp *replay) diskTree() error {
	n := prefill / rp.scale
	fit := max(n/20, 64) // several times the node count of n keys at 128 a node
	spill := max(2048/rp.scale, 16)
	if rp.sp.cacheNodes > 0 {
		spill = max(rp.sp.cacheNodes/rp.scale, 16)
	}
	base := filepath.Join(rp.dir, "base.db")
	if err := bulkLoadDisk(server.DiskEngineConfig{Path: base, CacheNodes: fit}, n, false); err != nil {
		return fmt.Errorf("replay diskbtree: %w", err)
	}
	for _, run := range []struct {
		suffix string
		cache  int
	}{{"fit", fit}, {"spill", spill}} {
		path := filepath.Join(rp.dir, run.suffix+".db")
		if err := pagestore.CloneFile(nil, base, path); err != nil {
			return err
		}
		fs := new(countFS)
		t, err := diskbtree.Open(path, diskbtree.Options{CacheNodes: run.cache, FS: fs})
		if err != nil {
			return fmt.Errorf("replay diskbtree: %w", err)
		}
		root, end := rp.rec.begin("replay.diskbtree." + run.suffix)
		calls := map[workload.Op]*callStat{
			workload.Search: rp.rec.call(root, "replay.diskbtree."+run.suffix+".search"),
			workload.Insert: rp.rec.call(root, "replay.diskbtree."+run.suffix+".insert"),
			workload.Delete: rp.rec.call(root, "replay.diskbtree."+run.suffix+".delete"),
		}
		c0 := t.CacheStats()
		var muts, lookups int64
		for _, p := range rp.merged {
			t0 := nowNs()
			switch p.op {
			case workload.Search:
				_, _, err = t.Search(p.key)
			case workload.Insert:
				_, err = t.Insert(p.key, p.val)
				muts++
			case workload.Delete:
				_, err = t.Delete(p.key)
				muts++
			default:
				continue
			}
			rp.rec.observe(calls[p.op], t0, nowNs())
			if err != nil {
				t.Close()
				return fmt.Errorf("replay diskbtree: %w", err)
			}
		}
		c1 := t.CacheStats()
		// Pages per lookup: point reads only, after the mix.
		for _, k := range rp.anchors {
			if _, _, err := t.Search(k); err != nil {
				t.Close()
				return fmt.Errorf("replay diskbtree: %w", err)
			}
			lookups++
		}
		c2 := t.CacheStats()
		if err := t.Close(); err != nil {
			return fmt.Errorf("replay diskbtree: %w", err)
		}
		end()
		ops := float64(calls[workload.Search].n + calls[workload.Insert].n + calls[workload.Delete].n)
		rp.out["diskbtree.search_us."+run.suffix] = rp.perCall(calls[workload.Search]) / 1e3
		rp.out["diskbtree.insert_us."+run.suffix] = rp.perCall(calls[workload.Insert]) / 1e3
		rp.out["diskbtree.delete_us."+run.suffix] = rp.perCall(calls[workload.Delete]) / 1e3
		if run.suffix == "fit" {
			continue
		}
		hits, misses := c1.Hits-c0.Hits, c1.Misses-c0.Misses
		if hits+misses > 0 {
			rp.out["cache.hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		rp.out["cache.evictions_per_kop"] = float64(c1.Evictions-c0.Evictions) / ops * 1000
		rp.out["diskbtree.pages_per_lookup"] = float64(c2.Hits+c2.Misses-c1.Hits-c1.Misses) / float64(max(lookups, 1))
		// Everything the tree wrote, the final flush at Close included,
		// against the 16 B of user data each mutation carried.
		rp.out["pagestore.reads_per_kop"] = float64(fs.reads.Load()) / ops * 1000
		rp.out["pagestore.writes_per_kop"] = float64(fs.writes.Load()) / ops * 1000
		rp.out["pagestore.write_amp"] = float64(fs.writeBytes.Load()) / float64(max(16*muts, 1))
		rp.count("cache.hits", hits)
		rp.count("cache.misses", misses)
		rp.count("cache.evictions", c1.Evictions-c0.Evictions)
		rp.count("pagestore.reads", fs.reads.Load())
		rp.count("pagestore.writes", fs.writes.Load())
		rp.count("pagestore.write_bytes", fs.writeBytes.Load())
	}
	return nil
}

// journalAndPages replays the stream's mutations into an oplog with one
// group commit per server batch's worth of ops, and the stream's reads and
// writes into a bare page file.
func (rp *replay) journalAndPages() error {
	fs := new(countFS)
	j, err := journal.OpenFS(filepath.Join(rp.dir, "replay"), false, fs)
	if err != nil {
		return fmt.Errorf("replay journal: %w", err)
	}
	root, end := rp.rec.begin("replay.journal")
	app := rp.rec.call(root, "replay.journal.append")
	com := rp.rec.call(root, "replay.journal.commit")
	pendingOps := 0
	cpu0 := cpuTimeUs()
	for _, p := range rp.merged {
		op := journal.Op{Kind: journal.OpInsert, Key: p.key, Val: p.val}
		switch p.op {
		case workload.Insert:
		case workload.Delete:
			op.Kind = journal.OpDelete
		default:
			continue
		}
		t0 := nowNs()
		err := j.Append(op)
		t1 := nowNs()
		rp.rec.observe(app, t0, t1)
		if pendingOps++; err == nil && pendingOps == server.DefaultMaxBatch {
			pendingOps = 0
			t0 = nowNs()
			err = j.Commit()
			rp.rec.observe(com, t0, nowNs())
		}
		if err != nil {
			j.Close()
			return fmt.Errorf("replay journal: %w", err)
		}
	}
	cpu1 := cpuTimeUs()
	appended, _, oplogBytes, _ := j.Stats()
	end()
	if err := j.Close(); err != nil {
		return fmt.Errorf("replay journal: %w", err)
	}
	rp.out["journal.append_us"] = rp.perCall(app) / 1e3
	rp.out["journal.commit_us"] = rp.perCall(com) / 1e3
	// A commit is mostly the wait for fsync; what the journal costs in CPU
	// per mutation, appends and commits together, comes from the CPU clock.
	rp.out["journal.cpu_us_per_op"] = (cpu1 - cpu0) / float64(max(appended, 1))
	rp.out["journal.bytes_per_op"] = float64(oplogBytes) / float64(max(appended, 1))
	rp.count("journal.fsyncs", fs.syncs.Load())
	rp.count("journal.write_bytes", fs.writeBytes.Load())

	st, err := pagestore.Open(filepath.Join(rp.dir, "pages.db"))
	if err != nil {
		return fmt.Errorf("replay pagestore: %w", err)
	}
	defer st.Close()
	const pages = 4096
	payload := make([]byte, 4000)
	ids := make([]pagestore.PageID, pages)
	for i := range ids {
		if ids[i], err = st.Allocate(); err == nil {
			err = st.Write(ids[i], payload)
		}
		if err != nil {
			return fmt.Errorf("replay pagestore: %w", err)
		}
	}
	root, end = rp.rec.begin("replay.pagestore")
	rd := rp.rec.call(root, "replay.pagestore.read")
	wr := rp.rec.call(root, "replay.pagestore.write")
	for _, p := range rp.merged {
		id := ids[uint64(p.key)>>1%pages]
		t0 := nowNs()
		if p.op == workload.Insert || p.op == workload.Delete {
			err = st.Write(id, payload)
			rp.rec.observe(wr, t0, nowNs())
		} else {
			_, err = st.Read(id)
			rp.rec.observe(rd, t0, nowNs())
		}
		if err != nil {
			return fmt.Errorf("replay pagestore: %w", err)
		}
	}
	end()
	rp.out["pagestore.read_us"] = rp.perCall(rd) / 1e3
	rp.out["pagestore.write_us"] = rp.perCall(wr) / 1e3
	return nil
}

// run replays every layer, outside in.
func (rp *replay) run() error {
	if err := rp.protocol(); err != nil {
		return err
	}
	rp.cbtree()
	rp.locks()
	if err := rp.query(); err != nil {
		return err
	}
	if err := rp.diskTree(); err != nil {
		return err
	}
	if err := rp.journalAndPages(); err != nil {
		return err
	}
	sort.Strings(rp.counts)
	return nil
}
