package server

import (
	"bufio"
	"bytes"
	"testing"

	"btreeperf/internal/cbtree"
)

// Allocation regression tests: the wire codec and the pooled batch path
// must stay allocation-free in steady state, or the serving fast path
// silently regresses. testing.AllocsPerRun catches that at test time
// instead of at the next benchmark run. Skipped under -race, whose
// instrumentation allocates on its own schedule.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}

func TestAppendRequestAllocs(t *testing.T) {
	skipUnderRace(t)
	buf := make([]byte, 0, 32)
	reqs := []Request{
		{Op: OpGet, Key: 12345678},
		{Op: OpPut, Key: 12345678, Val: 87654321},
		{Op: OpDel, Key: -5},
		{Op: OpPing},
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, req := range reqs {
			buf = AppendRequest(buf[:0], req)
		}
	}); n != 0 {
		t.Errorf("AppendRequest: %v allocs/op, want 0", n)
	}
}

func TestAppendResponseAllocs(t *testing.T) {
	skipUnderRace(t)
	buf := make([]byte, 0, 16)
	resps := []Response{
		{Status: StatusOK, HasVal: true, Val: 87654321},
		{Status: StatusMiss},
		{Status: StatusBusy},
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, resp := range resps {
			buf = AppendResponse(buf[:0], resp)
		}
	}); n != 0 {
		t.Errorf("AppendResponse: %v allocs/op, want 0", n)
	}
}

func TestReadRequestAllocs(t *testing.T) {
	skipUnderRace(t)
	frame := AppendRequest(nil, Request{Op: OpPut, Key: 12345678, Val: 87654321})
	src := bytes.NewReader(frame)
	br := bufio.NewReaderSize(src, 1<<10)
	buf := make([]byte, MaxPayload)
	if n := testing.AllocsPerRun(100, func() {
		src.Reset(frame)
		br.Reset(src)
		if _, err := ReadRequest(br, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadRequest: %v allocs/op, want 0", n)
	}
}

func TestReadResponseAllocs(t *testing.T) {
	skipUnderRace(t)
	frame := AppendResponse(nil, Response{Status: StatusOK, HasVal: true, Val: 87654321})
	src := bytes.NewReader(frame)
	br := bufio.NewReaderSize(src, 1<<10)
	buf := make([]byte, MaxPayload)
	if n := testing.AllocsPerRun(100, func() {
		src.Reset(frame)
		br.Reset(src)
		if _, err := ReadResponse(br, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadResponse: %v allocs/op, want 0", n)
	}
}

// TestBatchPathAllocs exercises the pooled batch lifecycle exactly as the
// connection reader and writer do: get a slab from the pool, append jobs,
// complete, wait, recycle. After a warm-up round sizes the pooled slab,
// the cycle must not allocate.
func TestBatchPathAllocs(t *testing.T) {
	skipUnderRace(t)
	const jobs = DefaultMaxBatch
	for _, nShards := range []int{1, 4} {
		cycle := func() {
			bt := getBatch(nShards)
			for i := 0; i < jobs; i++ {
				j := bt.add()
				j.req = Request{Op: OpGet, Key: int64(i)}
				j.resp = Response{Status: StatusOK}
				j.shard = int32(shardIndex(int64(i), nShards))
				bt.nexecSh[j.shard]++
			}
			involved := int32(0)
			for _, n := range bt.nexecSh {
				if n > 0 {
					involved++
				}
			}
			bt.arm(involved)
			for i := int32(0); i < involved; i++ {
				bt.completeOne()
			}
			bt.wait()
			putBatch(bt)
		}
		cycle() // warm up: grow the slabs to capacity once
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("shards=%d: batch get/add/complete/wait/put cycle: %v allocs/op, want 0", nShards, n)
		}
	}
}

// TestScanPageAllocs holds the scan path to the same standard as the
// point path: once the worker's scratch and the batch's page arena have
// grown to size, executing a page — per-shard leaf-run fetch, k-way
// merge, token — allocates nothing on the server, on the first page and
// on a token-following one, alone and fanned out over four shards. The
// cycle is the serving one: a pooled batch, several pages cut from its
// arena, recycle.
func TestScanPageAllocs(t *testing.T) {
	skipUnderRace(t)
	const limit, pagesPerBatch = 64, 8
	for _, nShards := range []int{1, 4} {
		s := New(Config{Algorithm: cbtree.LinkType, Shards: nShards, Prefill: 20000})
		w := s.newWorker()
		first := Request{Op: OpScan, Key: 0, Hi: 1 << 40, Limit: limit}
		cycle := func(req Request) (last Response) {
			bt := getBatch(nShards)
			w.arena = &bt.arenas[0]
			for i := 0; i < pagesPerBatch; i++ {
				last = s.execScan(req, w, &w.tallies[0])
				if last.Status != StatusOK || len(last.Entries) != limit || len(last.Token) == 0 {
					t.Fatalf("shards=%d: page status %d, %d entries, %d token bytes",
						nShards, last.Status, len(last.Entries), len(last.Token))
				}
			}
			putBatch(bt)
			return last
		}
		next := first
		next.Token = append([]byte(nil), cycle(first).Token...) // the batch is recycled under the response
		for _, tc := range []struct {
			name string
			req  Request
		}{{"first page", first}, {"token-following page", next}} {
			cycle(tc.req) // warm up: grow scratch and arena once
			if n := testing.AllocsPerRun(100, func() { cycle(tc.req) }); n != 0 {
				t.Errorf("shards=%d, %s: %v allocs per batch of %d pages, want 0", nShards, tc.name, n, pagesPerBatch)
			}
		}
		s.Close()
	}
}
