package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"btreeperf/internal/cbtree"
)

// Protocol micro-benchmarks: encode and decode must be zero-allocation so
// the per-request serving path stays allocation-free end to end.

func BenchmarkAppendRequest(b *testing.B) {
	buf := make([]byte, 0, 32)
	req := Request{Op: OpPut, Key: 12345678, Val: 87654321}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendRequest(buf[:0], req)
	}
	_ = buf
}

func BenchmarkAppendResponse(b *testing.B) {
	buf := make([]byte, 0, 16)
	resp := Response{Status: StatusOK, HasVal: true, Val: 87654321}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendResponse(buf[:0], resp)
	}
	_ = buf
}

func BenchmarkReadRequest(b *testing.B) {
	frame := AppendRequest(nil, Request{Op: OpPut, Key: 12345678, Val: 87654321})
	src := bytes.NewReader(frame)
	br := bufio.NewReaderSize(src, 1<<10)
	buf := make([]byte, MaxPayload)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.Reset(frame)
		br.Reset(src)
		if _, err := ReadRequest(br, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadResponse(b *testing.B) {
	frame := AppendResponse(nil, Response{Status: StatusOK, HasVal: true, Val: 87654321})
	src := bytes.NewReader(frame)
	br := bufio.NewReaderSize(src, 1<<10)
	buf := make([]byte, MaxPayload)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.Reset(frame)
		br.Reset(src)
		if _, err := ReadResponse(br, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeLoopback is the end-to-end serving benchmark: a real TCP
// loopback connection driving a pipelined mixed workload (50% get,
// 25% put, 25% del) against a prefilled tree, for each algorithm and
// pipeline depth. ns/op is the inverse of serving throughput; p50_us and
// p99_us are sampled pipelined response times. allocs/op covers the whole
// process (client and server share it), so 0 here means the steady-state
// request path on both sides is allocation-free.
func BenchmarkServeLoopback(b *testing.B) {
	for _, alg := range []cbtree.Algorithm{cbtree.LockCoupling, cbtree.Optimistic, cbtree.LinkType, cbtree.OLC} {
		for _, depth := range []int{1, 16, 128} {
			b.Run(fmt.Sprintf("%s/depth=%d", alg, depth), func(b *testing.B) {
				benchServeLoopback(b, alg, depth)
			})
		}
	}
}

// BenchmarkServeLoopbackReadHeavy is the workload OLC exists for: mostly
// gets (14/16) with just enough puts and dels (1/16 each) to keep
// writers in play. Under link-type every get still queues through the
// root's FCFS R lock; under olc the same gets descend latch-free and
// only validate versions, so olc should win this head-to-head at depth
// where the pipeline keeps the tree busy.
func BenchmarkServeLoopbackReadHeavy(b *testing.B) {
	for _, alg := range []cbtree.Algorithm{cbtree.LinkType, cbtree.OLC} {
		for _, depth := range []int{16, 128} {
			b.Run(fmt.Sprintf("%s/depth=%d", alg, depth), func(b *testing.B) {
				benchServeLoopbackMix(b, Config{Algorithm: alg, Capacity: 64, Depth: depth, Prefill: benchPrefill}, readHeavyReq)
			})
		}
	}
}

// BenchmarkServeDurable is the durable serving path end to end: the disk
// engine on a real file, the paper's mix (30% get, 50% put, 20% del) from
// two pipelined connections at depth 128 — workers, commit queue,
// committer, one fsync per group, release. ns/op is the inverse of
// serving throughput and moves with the device; ops/fsync is how many
// mutations each group-commit fsync covered, and allocs/op (client and
// server share the process) is the CI gate on the pipeline's hand-off,
// group and release allocating nothing.
func BenchmarkServeDurable(b *testing.B) {
	const conns, depth, prefill = 2, 128, 1 << 14
	// No checkpoints: an image build allocates, and is not what this
	// benchmark prices.
	eng, err := NewDiskEngine(DiskEngineConfig{Path: filepath.Join(b.TempDir(), "tree.db"), CheckpointOps: -1})
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Engine: eng, Depth: depth, Prefill: prefill})
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			b.Errorf("Serve: %v", err)
		}
	}()
	var cs [conns]*Client
	for i := range cs {
		if cs[i], err = Dial(ln.Addr().String()); err != nil {
			b.Fatal(err)
		}
		defer cs[i].Close()
	}

	before := eng.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := b.N / conns
			if i == 0 {
				n += b.N % conns
			}
			rng := uint64(i + 1)
			sent, recvd := 0, 0
			for recvd < n {
				for sent < n && sent-recvd < depth {
					rng = rng*6364136223846793005 + 1442695040888963407
					r := rng >> 33
					req := Request{Op: OpPut, Key: int64(r) % (1 << 40), Val: r}
					switch m := sent % 10; {
					case m < 3:
						req = Request{Op: OpGet, Key: benchKey(r % prefill)}
					case m < 5:
						req = Request{Op: OpDel, Key: benchKey(r % prefill)}
					}
					if err := c.Send(req); err != nil {
						b.Error(err)
						return
					}
					sent++
				}
				if err := c.Flush(); err != nil {
					b.Error(err)
					return
				}
				for drain := (sent - recvd + 1) / 2; drain > 0; drain-- {
					if _, err := c.Recv(); err != nil {
						b.Error(err)
						return
					}
					recvd++
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	after := eng.Stats()
	if fsyncs := after.Fsyncs - before.Fsyncs; fsyncs > 0 {
		b.ReportMetric(float64(after.SeqAppended-before.SeqAppended)/float64(fsyncs), "ops/fsync")
	}
}

const benchPrefill = 1 << 17

// benchKey mirrors the server's deterministic prefill scatter so gets and
// dels mostly hit existing keys.
func benchKey(i uint64) int64 {
	return int64(i*2654435761) % (1 << 40)
}

func benchServeLoopback(b *testing.B, alg cbtree.Algorithm, depth int) {
	benchServeLoopbackMB(b, alg, depth, 0)
}

func benchServeLoopbackMB(b *testing.B, alg cbtree.Algorithm, depth, maxBatch int) {
	benchServeLoopbackCfg(b, Config{Algorithm: alg, Capacity: 64, Depth: depth, Prefill: benchPrefill, MaxBatch: maxBatch})
}

// BenchmarkServeLoopbackSharded is the shard-count sweep on the mixed
// depth-128 workload: the same client stream fanned across N independent
// engines by the hash router. On a multi-core runner throughput should
// scale near-linearly until the cores run out; shards=1 must match
// BenchmarkServeLoopback's link-type/depth=128 case (the N=1 path is the
// unsharded one).
func BenchmarkServeLoopbackSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("link-type/depth=128/shards=%d", shards), func(b *testing.B) {
			benchServeLoopbackCfg(b, Config{
				Algorithm: cbtree.LinkType, Capacity: 64, Depth: 128,
				Prefill: benchPrefill, Shards: shards,
			})
		})
	}
}

// BenchmarkScanLoopback measures paged range-scan throughput over
// loopback TCP: one iteration is one page request (fan-out, merge,
// encode, wire round trip), cycling through the prefilled keyspace by
// following continuation tokens and restarting when a pass completes.
// keys/op is the realized page fill; keys/s throughput is keys/op
// divided by ns/op.
func BenchmarkScanLoopback(b *testing.B) {
	for _, shards := range []int{1, 4} {
		for _, limit := range []int{16, 64, 256} {
			b.Run(fmt.Sprintf("link-type/shards=%d/limit=%d", shards, limit), func(b *testing.B) {
				benchScanLoopback(b, shards, limit)
			})
		}
	}
}

func benchScanLoopback(b *testing.B, shards, limit int) {
	s := New(Config{Algorithm: cbtree.LinkType, Capacity: 64, Prefill: benchPrefill, Shards: shards})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			b.Errorf("Serve: %v", err)
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	const lo, hi = int64(0), int64(1) << 40
	var token []byte
	keys := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page, next, err := c.Scan(lo, hi, limit, token)
		if err != nil {
			b.Fatal(err)
		}
		keys += len(page)
		token = next // nil after the last page: the next iteration restarts
	}
	b.StopTimer()
	b.ReportMetric(float64(keys)/float64(b.N), "keys/op")
}

// mixedReq is the default 50% get / 25% put / 25% del request mix.
func mixedReq(seq int, r uint64) Request {
	switch seq % 4 {
	case 0, 1:
		return Request{Op: OpGet, Key: benchKey(r % benchPrefill)}
	case 2:
		return Request{Op: OpPut, Key: int64(r) % (1 << 40), Val: r}
	default:
		return Request{Op: OpDel, Key: benchKey(r % benchPrefill)}
	}
}

// readHeavyReq is the 87.5% get / 6.25% put / 6.25% del mix.
func readHeavyReq(seq int, r uint64) Request {
	switch seq % 16 {
	case 14:
		return Request{Op: OpPut, Key: int64(r) % (1 << 40), Val: r}
	case 15:
		return Request{Op: OpDel, Key: benchKey(r % benchPrefill)}
	default:
		return Request{Op: OpGet, Key: benchKey(r % benchPrefill)}
	}
}

func benchServeLoopbackCfg(b *testing.B, cfg Config) {
	benchServeLoopbackMix(b, cfg, mixedReq)
}

func benchServeLoopbackMix(b *testing.B, cfg Config, mix func(seq int, r uint64) Request) {
	depth := cfg.Depth
	s := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			b.Errorf("Serve: %v", err)
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	// Preallocate everything the measurement loop touches: the send-stamp
	// ring (latency sampling), the latency sample reservoir, and the rng
	// state, so allocs/op reflects the serving path alone.
	const sampleEvery = 16
	// The stamp ring is 2×depth so a slot is never overwritten while its
	// response (at most depth behind) is still outstanding.
	stamps := make([]int64, 2*depth)
	samples := make([]int64, 0, b.N/sampleEvery+1)
	rng := uint64(1)
	nextReq := func(seq int) Request {
		rng = rng*6364136223846793005 + 1442695040888963407
		return mix(seq, rng>>33)
	}

	b.ReportAllocs()
	b.ResetTimer()
	sent, recvd := 0, 0
	for recvd < b.N {
		// Fill the window, then drain half of it, keeping the pipeline
		// between depth/2 and depth outstanding.
		for sent < b.N && sent-recvd < depth {
			if sent%sampleEvery == 0 {
				stamps[sent%(2*depth)] = time.Now().UnixNano()
			}
			if err := c.Send(nextReq(sent)); err != nil {
				b.Fatal(err)
			}
			sent++
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
		drain := (sent - recvd + 1) / 2
		for j := 0; j < drain; j++ {
			if _, err := c.Recv(); err != nil {
				b.Fatal(err)
			}
			if recvd%sampleEvery == 0 {
				samples = append(samples, time.Now().UnixNano()-stamps[recvd%(2*depth)])
			}
			recvd++
		}
	}
	b.StopTimer()

	if len(samples) > 0 {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		q := func(p float64) float64 {
			return float64(samples[int(p*float64(len(samples)-1))]) / 1e3
		}
		b.ReportMetric(q(0.50), "p50_us")
		b.ReportMetric(q(0.99), "p99_us")
	}
}
