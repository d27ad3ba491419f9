package server

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// BenchmarkReplicatedGet measures read fan-out across a replicated
// deployment: a disk-backed leader plus N in-memory followers streaming
// its oplog, read from GOMAXPROCS goroutines, each on its own Client to
// one target (round-robin over the followers; the leader when there are
// none). One iteration is one OpGetSeq carrying the floor that the
// prefill's acks raised in a shared ReadFloor. replicas=0 is the baseline
// (every read hits the leader); each added follower adds an independent
// serving process, so steady-state read throughput should grow with the
// target count until the client side serializes. Writes are quiesced
// during measurement, so no read is refused for staleness — the lagging
// path is checked by TestReadFloorContract and driven by the failover
// harness instead.
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

	// Prefill through the wire so every write ships to the followers, and
	// raise the floor from every ack's stamp.
	floor := make(ReadFloor, 1)
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
			for j := i - 255; j <= i; j++ {
				resp, err := c.Recv()
				if err != nil {
					b.Fatal(err)
				}
				floor.Observe(benchKey(uint64(j)), int64(resp.Val))
			}
		}
	}
	c.Close()

	var targets []string
	for r := 0; r < replicas; r++ {
		fl := startFollower(b, Config{Shards: 1}, ReplOptions{Follow: ld.replAddr})
		defer fl.shutdown()
		targets = append(targets, fl.addr)
	}
	leaderSeqs := waitSeqs(b, ld.addr, func([]int64) bool { return true })
	for _, addr := range targets {
		waitSeqs(b, addr, func(seqs []int64) bool { return seqs[0] >= leaderSeqs[0] })
	}
	if replicas == 0 {
		targets = []string{ld.addr}
	}

	// One Client per RunParallel goroutine (GOMAXPROCS of them), dialed
	// round-robin over the targets before the timer starts.
	clients := make([]*Client, runtime.GOMAXPROCS(0))
	for i := range clients {
		if clients[i], err = Dial(targets[i%len(targets)]); err != nil {
			b.Fatal(err)
		}
		defer clients[i].Close()
	}

	var miss, lagging atomic.Int64
	var n, next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := clients[next.Add(1)-1]
		for pb.Next() {
			key := benchKey(n.Add(1) % benchReplPrefill)
			resp, err := c.Do(Request{Op: OpGetSeq, Key: key, MinSeq: floor.For(key)})
			if err != nil {
				b.Error(err)
				return
			}
			switch resp.Status {
			case StatusOK:
			case StatusMiss:
				miss.Add(1)
			case StatusLagging:
				lagging.Add(1)
			default:
				b.Errorf("getseq %d: %s", key, StatusName(resp.Status))
				return
			}
		}
	})
	b.StopTimer()
	if m := miss.Load(); m > 0 {
		b.Fatalf("%d misses on prefilled keys", m)
	}
	if l := lagging.Load(); l > 0 {
		// Quiesced reads must never be refused; a refusal here means the
		// followers were not caught up when the timer started.
		b.Fatalf("%d stale refusals in steady state", l)
	}
}
