package server

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"btreeperf/internal/cbtree"
	"btreeperf/internal/query"
	"btreeperf/internal/xrand"
)

// TestResponseOrderAcrossDepths checks the acceptance invariant of the
// batched pipeline: responses come back in request order at every
// combination of pipeline depth and batch bound, including the degenerate
// ones (depth 1 = one batch in flight, max-batch 1 = every batch a single
// job). Each get's value encodes its key, so any reordering anywhere in
// the reader → worker → writer pipeline is caught.
func TestResponseOrderAcrossDepths(t *testing.T) {
	for _, depth := range []int{1, 2, 16, 128} {
		for _, maxBatch := range []int{1, 4, 32} {
			t.Run(fmt.Sprintf("depth=%d/maxBatch=%d", depth, maxBatch), func(t *testing.T) {
				t.Parallel()
				_, addr, shutdown := startServer(t, Config{
					Algorithm: cbtree.LinkType, Depth: depth, MaxBatch: maxBatch,
				})
				defer shutdown()
				c, err := Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()

				const n = 2000
				done := make(chan struct{})
				go func() {
					defer close(done)
					for i := 0; i < n; i++ {
						c.Send(Request{Op: OpPut, Key: int64(i), Val: uint64(i)*7 + 1})
						if i%3 == 0 {
							c.Flush() // vary framing so batches split unevenly
						}
					}
					for i := 0; i < n; i++ {
						c.Send(Request{Op: OpGet, Key: int64(i)})
					}
					c.Flush()
				}()
				for i := 0; i < n; i++ {
					resp, err := c.Recv()
					if err != nil {
						t.Fatalf("put resp %d: %v", i, err)
					}
					if resp.Status != StatusOK {
						t.Fatalf("put %d: status %d", i, resp.Status)
					}
				}
				for i := 0; i < n; i++ {
					resp, err := c.Recv()
					if err != nil {
						t.Fatalf("get resp %d: %v", i, err)
					}
					if !resp.HasVal || resp.Val != uint64(i)*7+1 {
						t.Fatalf("get %d: %+v (responses out of request order)", i, resp)
					}
				}
				<-done
			})
		}
	}
}

// TestPipelinedRequestsApplyInOrder checks the ordering contract of every
// server (protocol.go): one connection's requests apply in request order,
// so a read sees the put sent just before it although the two are in
// flight together. MaxBatch 1 makes every request a batch of its own: the
// case in which two batches of one connection could run on two goroutines
// at once, were there a pool — on a durable server too, where a put's
// batch is still waiting for its fsync when the read's batch applies. The
// two-shard case reads with a scan, which is dealt to a home shard that is
// not its key's every other time, in batches of up to DefaultMaxBatch:
// request order holds across the shards of one batch too. The batched OLC
// cases put a put and the get after it in one batch, whose point ops are
// all located before any is applied: the get's hint is stale by the time
// it runs, and it must not be answered from it.
func TestPipelinedRequestsApplyInOrder(t *testing.T) {
	get := func(k int64) Request { return Request{Op: OpGet, Key: k} }
	scan := func(k int64) Request { return Request{Op: OpScan, Key: k, Hi: k + 1, Limit: 1} }
	for _, tc := range []struct {
		name string
		cfg  func(t *testing.T) Config
		read func(key int64) Request
	}{
		{"link-type", func(*testing.T) Config { return Config{Algorithm: cbtree.LinkType, MaxBatch: 1} }, get},
		{"olc", func(*testing.T) Config { return Config{Algorithm: cbtree.OLC, MaxBatch: 1} }, get},
		{"olc/batched", func(*testing.T) Config { return Config{Algorithm: cbtree.OLC} }, get},
		{"olc/shards=2/batched", func(*testing.T) Config { return Config{Algorithm: cbtree.OLC, Shards: 2} }, get},
		{"link-type/shards=2/scan", func(*testing.T) Config { return Config{Algorithm: cbtree.LinkType, Shards: 2} }, scan},
		{"disk", func(t *testing.T) Config {
			return Config{Engine: newDiskEngine(t, DiskEngineConfig{}), MaxBatch: 1}
		}, get},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, addr, shutdown := startServer(t, tc.cfg(t))
			defer s.Close()
			defer shutdown()
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			const rounds, pairs = 200, 64 // 128 requests: the default Depth
			missed := 0
			for r := 0; r < rounds; r++ {
				for i := 0; i < pairs; i++ {
					c.Send(Request{Op: OpPut, Key: int64(i), Val: uint64(r*pairs + i + 1)})
					c.Send(tc.read(int64(i)))
				}
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < pairs; i++ {
					put, err := c.Recv()
					if err != nil || put.Status != StatusOK && put.Status != StatusMiss {
						t.Fatalf("round %d put %d: %+v, %v", r, i, put, err)
					}
					want := uint64(r*pairs + i + 1)
					if tc.read(0).Op == OpScan {
						page, err := c.RecvPage()
						if err != nil {
							t.Fatalf("round %d scan %d: %v", r, i, err)
						}
						if len(page.Entries) != 1 || page.Entries[0].Val != want {
							missed++
						}
						continue
					}
					get, err := c.Recv()
					if err != nil {
						t.Fatalf("round %d get %d: %v", r, i, err)
					}
					if !get.HasVal || get.Val != want {
						missed++
					}
				}
			}
			if missed > 0 {
				t.Errorf("%d of %d reads missed the put sent just before them", missed, rounds*pairs)
			}
		})
	}
}

// BenchmarkBatchDispatch measures a batch's dispatch alone — on a mem
// server: execute in place, tally, completion signal — without the
// network or codec, by dispatching pooled batches of gets the way a
// connection reader does. ns/op is per request; the spread across batch
// sizes is the per-batch overhead being amortized.
func BenchmarkBatchDispatch(b *testing.B) {
	for _, size := range []int{1, 8, DefaultMaxBatch} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			s := New(Config{Algorithm: cbtree.LinkType, Prefill: benchPrefill})
			defer s.Close()
			w := s.newWorker()
			rng := uint64(1)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; {
				bt := getBatch(1)
				for i := 0; i < size && n < b.N; i++ {
					rng = rng*6364136223846793005 + 1442695040888963407
					j := bt.add()
					j.req = Request{Op: OpGet, Key: benchKey((rng >> 33) % benchPrefill)}
					bt.nexec++
					bt.nexecSh[0]++
					n++
				}
				s.dispatch(bt, w)
				bt.wait()
				putBatch(bt)
			}
		})
	}
}

// TestPageArenaAliasing pins the ownership rule of page memory: every
// page of a batch is cut out of that batch's per-shard arena, so a later
// page of the same batch must never reach an earlier one (each cut is
// capped, and an arena that outgrows its array abandons it to the pages
// already cut), and a batch's next life must not see its previous one.
// One batch of 160 scans is dealt across the shards with the arenas
// empty, so each has to grow several times mid-batch; the pages are then
// encoded the way the connection writer does it — after the completion
// token — and every one must equal its oracle page. The batch is then
// reset and reused for point ops and degenerate pages, none of which may
// carry entries or a token.
func TestPageArenaAliasing(t *testing.T) {
	const jobs, limit, keySpace = 160, 48, 1 << 20
	for _, nShards := range []int{2, 4} {
		s := New(Config{Algorithm: cbtree.LinkType, Shards: nShards, Capacity: 8})
		src := xrand.New(uint64(nShards))
		stored := map[int64]uint64{}
		for i := 0; i < 6000; i++ {
			k, v := src.Int63n(keySpace), uint64(i)+1
			if _, err := s.shards[s.shardIdx(k)].eng.Put(k, v); err != nil {
				t.Fatal(err)
			}
			stored[k] = v
		}
		oracle := make([]query.KV, 0, len(stored))
		for k, v := range stored {
			oracle = append(oracle, query.KV{Key: k, Val: v})
		}
		sort.Slice(oracle, func(i, j int) bool { return oracle[i].Key < oracle[j].Key })

		w := s.newWorker()
		run := func(bt *batch, reqs []Request) {
			for i, req := range reqs {
				j := bt.add()
				j.req = req
				j.shard = int32(i % nShards)
				bt.nexec++
				bt.nexecSh[j.shard]++
			}
			s.dispatch(bt, w)
			bt.wait()
		}

		bt := getBatch(nShards)
		for i := range bt.arenas {
			bt.arenas[i] = pageArena{}
		}
		scans := make([]Request, jobs)
		for i := range scans {
			scans[i] = Request{Op: OpScan, Key: src.Int63n(keySpace), Hi: keySpace, Limit: limit}
		}
		run(bt, scans)
		for si := range bt.arenas {
			first := bt.jobs[si].resp.Entries // shard si's first page
			if a := bt.arenas[si].ents; len(first) == 0 || len(a) < jobs/nShards*limit/2 || &first[0] == &a[0] {
				t.Fatalf("shards=%d: shard %d's arena did not grow mid-batch (%d entries, first page of %d)",
					nShards, si, len(a), len(first))
			}
		}
		var wire []byte
		for i := range bt.jobs {
			wire = AppendResponse(wire, bt.jobs[i].resp)
		}
		br := bufio.NewReader(bytes.NewReader(wire))
		buf := make([]byte, MaxPayload)
		for i, req := range scans {
			resp, err := ReadPageResponse(br, buf)
			if err != nil || resp.Status != StatusOK {
				t.Fatalf("shards=%d page %d: status %d, %v", nShards, i, resp.Status, err)
			}
			from := sort.Search(len(oracle), func(j int) bool { return oracle[j].Key >= req.Key })
			want := oracle[from:min(from+limit, len(oracle))]
			if len(resp.Entries) != len(want) || (len(want) > 0 && !reflect.DeepEqual(resp.Entries, want)) {
				t.Fatalf("shards=%d page %d from %d: %d entries %v\nwant %d: %v",
					nShards, i, req.Key, len(resp.Entries), resp.Entries, len(want), want)
			}
			if more := from+limit < len(oracle); (len(resp.Token) > 0) != more {
				t.Fatalf("shards=%d page %d from %d: %d token bytes, more in range: %v",
					nShards, i, req.Key, len(resp.Token), more)
			}
		}

		// Second life: nothing of the 160 pages may show.
		bt.reset(nShards)
		second := []Request{
			{Op: OpGet, Key: oracle[0].Key},
			{Op: OpGet, Key: -1},
			{Op: OpScan, Key: 10, Hi: 10, Limit: limit},       // empty range
			{Op: OpScan, Key: keySpace, Hi: 1 << 40},          // nothing stored there
			{Op: OpSeek, Key: keySpace},                       // nothing at or above
			{Op: OpSeek, Key: 0},                              // one entry, cut from the reset arena
			{Op: OpScan, Key: 0, Hi: oracle[2].Key, Limit: 8}, // two entries
		}
		run(bt, second)
		for i, wantEntries := range []int{0, 0, 0, 0, 0, 1, 2} {
			resp := bt.jobs[i].resp
			if len(resp.Entries) != wantEntries || resp.Token != nil || (wantEntries == 0 && resp.Entries != nil) {
				t.Fatalf("shards=%d second life, job %d (%+v): entries %v token %v, want %d entries and no token",
					nShards, i, second[i], resp.Entries, resp.Token, wantEntries)
			}
			if wantEntries > 0 && !reflect.DeepEqual(resp.Entries, oracle[:wantEntries]) {
				t.Fatalf("shards=%d second life, job %d: entries %v, want %v", nShards, i, resp.Entries, oracle[:wantEntries])
			}
		}
		putBatch(bt)
		s.Close()
	}
}
