package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"btreeperf/internal/diskbtree"
	"btreeperf/internal/server"
)

// instance is one running server with its load generator attached: an
// in-process server.Server on loopback TCP, shipped defaults (governor
// on, fsync=batch, incremental checkpoints), and conns closed-loop
// callers that have finished their warm-up.
type instance struct {
	sp      *spec
	prefill int

	srv     *server.Server
	diskCfg server.DiskEngineConfig // zero on mem workloads
	dataDir string

	ln       net.Listener
	cancel   context.CancelFunc
	serveErr chan error
	hs       *http.Server // telemetry endpoints, traced runs only
	httpURL  string

	conns      []*loadConn
	streamHash string
	warmupOps  int
}

// setup starts the server (prefilled), builds the generators' key pools
// and the oracle, dials the connections and runs the warm-up. workDir
// receives the disk engine's files; telemetry also serves /metrics and
// /debug/model over HTTP (traced runs scrape them).
func setup(sp *spec, seed uint64, scale int, workDir string, telemetry bool) (_ *instance, err error) {
	inst := &instance{sp: sp, prefill: prefill / scale}
	defer func() {
		if err != nil {
			inst.teardown()
		}
	}()

	cfg := server.Config{Algorithm: sp.alg, Shards: sp.shards}
	if sp.disk {
		inst.dataDir, err = os.MkdirTemp(workDir, sp.name+"-")
		if err != nil {
			return nil, err
		}
		inst.diskCfg = server.DiskEngineConfig{
			Path:          filepath.Join(inst.dataDir, "tree.db"),
			CacheNodes:    max(sp.cacheNodes/scale, 16),
			CheckpointOps: max(sp.ckptOps/int64(scale), 1024),
		}
		if err := bulkLoadDisk(inst.diskCfg, inst.prefill, true); err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
		eng, err := server.NewDiskEngine(inst.diskCfg)
		if err != nil {
			return nil, err
		}
		cfg.Engine = eng
	} else {
		cfg.Prefill = inst.prefill
	}
	inst.srv = server.New(cfg)
	if n := inst.srv.Len(); n != inst.prefill {
		return nil, fmt.Errorf("prefilled server holds %d keys, want %d", n, inst.prefill)
	}

	inst.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	inst.cancel = cancel
	inst.serveErr = make(chan error, 1)
	go func() { inst.serveErr <- inst.srv.Serve(ctx, inst.ln) }()
	if telemetry {
		hln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		inst.hs = &http.Server{Handler: inst.srv.Handler()}
		go inst.hs.Serve(hln)
		inst.httpURL = "http://" + hln.Addr().String()
	}

	gens, err := sp.generators(seed, inst.prefill)
	if err != nil {
		return nil, err
	}
	for i, gen := range gens {
		c, err := server.Dial(inst.ln.Addr().String())
		if err != nil {
			return nil, err
		}
		// A server that stops answering must fail the run, not hang it.
		c.SetOpTimeout(30 * time.Second)
		inst.conns = append(inst.conns, &loadConn{idx: i, sp: sp, c: c, gen: gen, oracle: make(map[int64]okey)})
	}
	for i := 0; i < inst.prefill; i++ {
		if k := prefillKey(i); tracked(k) {
			inst.conns[k&1].oracle[k] = okey{val: uint64(i), live: true, known: true}
		}
	}

	inst.warmupOps = phaseOps(sp.warmupOps / scale)
	bursts := inst.warmupOps / conns / burstSize
	if _, err := inst.drive(bursts, 1, true, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var h uint64
	for _, lc := range inst.conns {
		h = (h ^ lc.hash) * hashPrime
	}
	inst.streamHash = fmt.Sprintf("%016x", h)
	if err := sp.checkPin(seed, scale, inst.streamHash); err != nil {
		return nil, err
	}
	return inst, nil
}

// bulkLoadDisk writes the prefill as a packed tree file, which is what a
// store that has been running for a while looks like; inserting a million
// random keys through a spilling cache would take ten seconds per set-up.
func bulkLoadDisk(cfg server.DiskEngineConfig, n int, durable bool) error {
	type kv struct {
		k int64
		v uint64
	}
	kvs := make([]kv, n)
	for i := range kvs {
		kvs[i] = kv{prefillKey(i), uint64(i)}
	}
	sort.Slice(kvs, func(a, b int) bool { return kvs[a].k < kvs[b].k })
	keys := make([]int64, n)
	vals := make([]uint64, n)
	for i, e := range kvs {
		keys[i], vals[i] = e.k, e.v
	}
	t, err := diskbtree.BulkLoad(cfg.Path, diskbtree.Options{CacheNodes: cfg.CacheNodes, Durable: durable, FS: cfg.FS}, keys, vals, bulkFill)
	if err != nil {
		return err
	}
	return t.Close()
}

// bulkFill is ln 2, the steady-state utilisation of a B-tree grown by
// random inserts, so the bulk-loaded tree splits like a grown one.
const bulkFill = 0.69

// drive runs bursts bursts on every connection at once and waits for all
// of them. It returns each connection's latency histograms, nHists equal
// slices of its bursts, and the connections' errors joined.
func (inst *instance) drive(bursts, nHists int, hashing bool, tr *tracer) ([][]*hist, error) {
	var wg sync.WaitGroup
	errs := make([]error, len(inst.conns))
	per := make([][]*hist, len(inst.conns))
	for i, lc := range inst.conns {
		per[i] = make([]*hist, nHists)
		for s := range per[i] {
			per[i][s] = new(hist)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ct *connTrace
			if tr != nil {
				ct = tr.conns[i]
			}
			errs[i] = lc.run(bursts, per[i], hashing, ct)
		}()
	}
	wg.Wait()
	return per, errors.Join(errs...)
}

// timed is what one timed phase measured.
type timed struct {
	ops     int64
	wallNs  int64
	cpuUs   float64 // user+sys CPU of the whole process
	gcShare float64 // GC CPU over non-idle CPU
	slices  []*hist // per-slice latency, connections merged
	total   *hist
	latNs   int64 // exact sum of latencies
	encNs   int64 // sums over all bursts of all connections
	flushNs int64
	waitNs  int64
	drainNs int64
	bursts  int64
	// Per-slice rates of the whole process, one per interval between
	// connection 0's slice ends.
	sliceOpsPerS []float64
	sliceCPUUs   []float64
}

// mark is one sample of the process during a timed phase.
type mark struct {
	ns    int64
	cpuUs float64
	ops   int64
}

func cpuTimeUs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	us := func(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e6 + float64(tv.Usec) }
	return us(ru.Utime) + us(ru.Stime)
}

// gcCPU returns the runtime's estimate of GC and non-idle CPU seconds.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// measure runs a timed phase of ops operations.
func (inst *instance) measure(ops int, tr *tracer) (*timed, error) {
	bursts := ops / conns / burstSize
	runtime.GC() // start every timed phase from a collected heap
	gc0, busy0 := gcCPU()
	cpu0 := cpuTimeUs()
	t0 := nowNs()
	// Connection 0 samples the process as it finishes each of its slices:
	// the wall clock, the CPU clock, and the ops all connections have
	// completed. Rates over the intervals between samples are what the
	// slice medians of throughput and CPU per op are taken over.
	var done atomic.Int64
	marks := make([]mark, 1, slices+1)
	marks[0] = mark{t0, cpu0, 0}
	for _, lc := range inst.conns {
		lc.deadline = t0 + maxTimedSeconds*1e9
		lc.done = &done
	}
	inst.conns[0].sliceEnd = func() { marks = append(marks, mark{nowNs(), cpuTimeUs(), done.Load()}) }
	per, err := inst.drive(bursts, slices, false, tr)
	wall := nowNs() - t0
	cpu1 := cpuTimeUs()
	gc1, busy1 := gcCPU()
	inst.conns[0].sliceEnd = nil
	if err != nil {
		return nil, err
	}
	tm := &timed{
		ops:    int64(ops),
		wallNs: wall,
		cpuUs:  cpu1 - cpu0,
		slices: make([]*hist, slices),
		total:  new(hist),
		bursts: int64(bursts * conns),
	}
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		if b.ops > a.ops && b.ns > a.ns {
			tm.sliceOpsPerS = append(tm.sliceOpsPerS, float64(b.ops-a.ops)/(float64(b.ns-a.ns)/1e9))
			tm.sliceCPUUs = append(tm.sliceCPUUs, (b.cpuUs-a.cpuUs)/float64(b.ops-a.ops))
		}
	}
	if busy1 > busy0 {
		tm.gcShare = (gc1 - gc0) / (busy1 - busy0)
	}
	for i := range tm.slices {
		tm.slices[i] = new(hist)
		for c := range per {
			tm.slices[i].merge(per[c][i])
		}
	}
	for _, lc := range inst.conns {
		tm.total.merge(&lc.total)
		tm.latNs += lc.latNs
		tm.encNs += lc.encNs
		tm.flushNs += lc.flushNs
		tm.waitNs += lc.waitNs
		tm.drainNs += lc.drainNs
	}
	return tm, nil
}

// stop drains the server: connections are closed, Serve returns, every
// acknowledged batch's group commit has returned. The engines stay open.
func (inst *instance) stop() error {
	for _, lc := range inst.conns {
		lc.c.Close()
	}
	if inst.hs != nil {
		inst.hs.Close()
		inst.hs = nil
	}
	if inst.cancel == nil {
		return nil
	}
	inst.cancel()
	inst.cancel = nil
	return <-inst.serveErr
}

// teardown stops the server, closes its engines and removes its files.
func (inst *instance) teardown() error {
	err := inst.stop()
	if inst.srv != nil {
		err = errors.Join(err, inst.srv.Close())
	}
	if inst.dataDir != "" {
		err = errors.Join(err, os.RemoveAll(inst.dataDir))
	}
	return err
}
