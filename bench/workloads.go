package main

import (
	"fmt"

	"btreeperf/internal/cbtree"
	"btreeperf/internal/workload"
	"btreeperf/internal/xrand"
)

// The load shape every workload shares. Two pipelined callers on two
// cores keep the server's worker pool and the generator on the same two
// processors, which is the deployment ROADMAP's numbers are quoted for.
const (
	conns     = 2       // connections, one goroutine each
	burstSize = 64      // requests per flush burst: the closed-loop depth
	prefill   = 1000000 // keys in the tree before serving
	keySpace  = 1 << 40 // insert keys are drawn from [0, keySpace)
	scanSpan  = keySpace / 512
	slices    = 30 // equal op-count slices of the timed phase
	// runSeconds is the timed-phase length the frozen op counts were
	// calibrated for; BENCHMARK.json's run_seconds is the same number.
	runSeconds = 16
	// maxTimedSeconds aborts a workload whose timed phase drifts this far
	// from its calibration, so drift is seen and not absorbed.
	maxTimedSeconds = 90
	// trackedShift: one key in 64 carries an oracle entry (see tracked).
	trackedShift = 58
)

// spec is one workload: a server configuration and a traffic mix.
type spec struct {
	name string
	why  string

	disk       bool // disk engine (1 shard) instead of the in-memory one
	alg        cbtree.Algorithm
	shards     int
	scenario   string // workload.Scenario preset
	zipf       float64
	scanLimit  int   // entries per scan page
	cacheNodes int   // disk: buffer-pool size in nodes
	ckptOps    int64 // disk: replay debt that triggers a checkpoint

	// timedOps is the frozen op count of the timed phase, calibrated once
	// on seed 1 on the reference sandbox (2 cores) to take runSeconds; other
	// --seconds values scale it linearly. To recalibrate, scale it by
	// runSeconds over the duration a seed-1 run prints on its "timed:" line.
	timedOps int
	// warmupOps is the untimed warm-up's op count.
	warmupOps int
	// streamHash pins the generated request stream per seed: the hash of
	// every warm-up request of both connections. A run whose stream hashes
	// differently refuses to measure.
	streamHash map[uint64]string
}

var specs = []*spec{
	{
		name:       "mem-paper-olc",
		why:        "70% mutations on one OLC tree: cbtree's write path (snapshot republish, splits) does most of the work",
		alg:        cbtree.OLC,
		shards:     1,
		scenario:   "paper",
		timedOps:   8800000,
		warmupOps:  629760,
		streamHash: map[uint64]string{1: "e318d065ae721cdf", 2: "9322f5e1b282e6aa"},
	},
	{
		name:       "mem-read-zipf",
		why:        "95% latch-free reads, zipf 1.1: the tree is cheap so codec, batching and conn goroutines dominate; bypasses write-path work",
		alg:        cbtree.OLC,
		shards:     1,
		scenario:   "read-heavy",
		zipf:       1.1,
		timedOps:   18400000,
		warmupOps:  1251840,
		streamHash: map[uint64]string{1: "28c34cd836ed8421", 2: "d909e72f1001024f"},
	},
	{
		name:       "mem-scan-mixed",
		why:        "20% range scans beside point writes on 2 link-type shards: query merge, leaf-chain Range, shard router and FCFS locks",
		alg:        cbtree.LinkType,
		shards:     2,
		scenario:   "scan-mixed",
		scanLimit:  64,
		timedOps:   5100000,
		warmupOps:  341760,
		streamHash: map[uint64]string{1: "7b8590282d35920f", 2: "7962b1e96cbd52e9"},
	},
	{
		name:       "disk-spill-paper",
		why:        "paper mix on the disk engine with a cache a fifth of the tree: diskbtree+cache, journal group commit, pagestore, checkpoints",
		disk:       true,
		shards:     1,
		scenario:   "paper",
		cacheNodes: 2048,
		ckptOps:    1 << 16, // about ten checkpoints install inside the timed phase
		timedOps:   910000,
		warmupOps:  65280,
		streamHash: map[uint64]string{1: "b7ebe250b3f2f79e", 2: "3b374121dabcd56c"},
	},
}

func findSpec(name string) (*spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// checkPin refuses a full-scale run whose request stream no longer hashes
// to the value pinned for its seed. Unpinned seeds and scaled-down runs
// (whose shorter warm-up hashes differently) pass.
func (sp *spec) checkPin(seed uint64, scale int, got string) error {
	want, pinned := sp.streamHash[seed]
	if !pinned || scale != 1 || want == got {
		return nil
	}
	return fmt.Errorf("%s: request stream of seed %d hashes to %s, pinned %s: internal/workload changed what this benchmark measures",
		sp.name, seed, got, want)
}

func (sp *spec) mix() workload.Mix {
	m, err := workload.Scenario(sp.scenario)
	if err != nil {
		panic(err) // a bug in the table above
	}
	return m
}

// generators returns one request generator per connection for seed. The
// master pool takes the n prefill keys in insertion order and Split deals
// slot j to generator j%conns — the key's low bit, which is how
// loadConn.request assigns keys to connections.
func (sp *spec) generators(seed uint64, n int) ([]*workload.Generator, error) {
	pool := workload.NewKeyPool()
	for i := 0; i < n; i++ {
		pool.Add(prefillKey(i))
	}
	master, err := workload.NewGenerator(sp.mix(), pool, keySpace, xrand.New(seed))
	if err != nil {
		return nil, err
	}
	master.SetSkew(sp.zipf)
	return master.Split(conns), nil
}

// prefillKey is the i-th key server.New inserts for Config.Prefill (value
// i). The harness rebuilds the same list to seed the generators' key pools
// and the oracle; the end-of-run read-back fails if the server's formula
// ever drifts from this one.
func prefillKey(i int) int64 {
	return int64(uint64(i) * 2654435761 % (1 << 40))
}

// phaseOps rounds an op count to what the load loop can run exactly: every
// connection gets the same whole number of bursts per slice.
func phaseOps(ops int) int {
	unit := conns * burstSize * slices
	n := (ops + unit/2) / unit
	if n < 1 {
		n = 1
	}
	return n * unit
}
