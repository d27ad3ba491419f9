package server

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkReplicatedGet measures read fan-out across a replica set:
// a disk-backed leader plus N in-memory followers streaming its oplog,
// read through a ReplicaSet client from GOMAXPROCS goroutines. One
// iteration is one bounded-staleness Get. replicas=0 is the baseline
// (every read hits the leader); each added follower adds an independent
// serving process and connection, so steady-state read throughput
// should grow with the target count until the client serializes.
// Writes are quiesced during measurement, so no read is refused for
// staleness — the lagging path is benchmarked by the failover harness
// and priced in EXPERIMENTS.md instead.
func BenchmarkReplicatedGet(b *testing.B) {
	for _, replicas := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("link-type/replicas=%d", replicas), func(b *testing.B) {
			benchReplicatedGet(b, replicas)
		})
	}
}

const benchReplPrefill = 1 << 13

func benchReplicatedGet(b *testing.B, replicas int) {
	// A dedicated engine with the default checkpoint cadence: the tiny
	// CheckpointOps the tests use would checkpoint dozens of times
	// during prefill (concurrently, but still burning I/O) and swamp
	// the setup.
	eng, err := NewDiskEngine(DiskEngineConfig{Path: b.TempDir() + "/tree.db"})
	if err != nil {
		b.Fatal(err)
	}
	ld := startLeader(b, 1, Config{Engines: []Engine{eng}})
	defer ld.shutdown()

	// Prefill through the wire so every write ships to the followers.
	c, err := Dial(ld.addr)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchReplPrefill; i++ {
		if err := c.Send(Request{Op: OpPut, Key: benchKey(uint64(i)), Val: uint64(i)}); err != nil {
			b.Fatal(err)
		}
		if i%256 == 255 {
			if err := c.Flush(); err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 256; j++ {
				if _, err := c.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	c.Close()

	cfgAddrs := make([]string, 0, replicas)
	for r := 0; r < replicas; r++ {
		fl := startFollower(b, Config{Shards: 1}, ReplOptions{Follow: ld.replAddr})
		defer fl.shutdown()
		cfgAddrs = append(cfgAddrs, fl.addr)
	}
	leaderSeqs := waitSeqs(b, ld.addr, func([]int64) bool { return true })
	for _, addr := range cfgAddrs {
		waitSeqs(b, addr, func(seqs []int64) bool { return seqs[0] >= leaderSeqs[0] })
	}

	rs, err := DialReplicaSet(ReplicaSetConfig{Leader: ld.addr, Replicas: cfgAddrs})
	if err != nil {
		b.Fatal(err)
	}
	defer rs.Close()

	var miss atomic.Int64
	var n atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := n.Add(1)
			_, ok, err := rs.Get(benchKey(i % benchReplPrefill))
			if err != nil {
				b.Error(err)
				return
			}
			if !ok {
				miss.Add(1)
			}
		}
	})
	b.StopTimer()
	if m := miss.Load(); m > 0 {
		b.Fatalf("%d misses on prefilled keys", m)
	}
	st := rs.Stats()
	if replicas > 0 && st.StaleRefused > 0 {
		// Quiesced reads must never be refused; a refusal here means the
		// followers were not caught up when the timer started.
		b.Fatalf("%d stale refusals in steady state", st.StaleRefused)
	}
}
