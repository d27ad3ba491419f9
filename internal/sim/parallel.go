package sim

// How independent simulation runs (replications and sweep points) share
// the machine. Replications are embarrassingly parallel by construction —
// each owns its seed, its tree and its DES environment, and the packages
// they touch hold no mutable global state — so the only coordination
// needed is a bound on how many execute at once and a deterministic,
// seed-ordered reduction of their results.
//
// The bound is process-wide: at most runtime.GOMAXPROCS(0) Runs launched
// by RunSeeds execute at once, read when each run starts. Callers above
// the replication level (ForEachPoint's sweep points) run on plain
// goroutines without holding a slot; only the leaf Run calls take one,
// so nested fan-out cannot deadlock.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	slotMu   sync.Mutex
	slotFree = sync.NewCond(&slotMu)
	busy     int // Runs executing now
)

// acquireSlot blocks until fewer than GOMAXPROCS runs are executing.
func acquireSlot() {
	slotMu.Lock()
	for busy >= runtime.GOMAXPROCS(0) {
		slotFree.Wait()
	}
	busy++
	slotMu.Unlock()
}

func releaseSlot() {
	slotMu.Lock()
	busy--
	slotMu.Unlock()
	slotFree.Signal()
}

// Progress is a snapshot of the runs' activity counters, for CLI
// observability (jobs completed/total and ops/sec lines).
type Progress struct {
	Queued int64 // replications enqueued by RunSeeds
	Done   int64 // replications completed
	Ops    int64 // simulated operations completed across replications
}

var progQueued, progDone, progOps atomic.Int64

// PoolProgress snapshots the counters.
func PoolProgress() Progress {
	return Progress{
		Queued: progQueued.Load(),
		Done:   progDone.Load(),
		Ops:    progOps.Load(),
	}
}

// ResetPoolProgress zeroes the counters (e.g. between figures).
func ResetPoolProgress() {
	progQueued.Store(0)
	progDone.Store(0)
	progOps.Store(0)
}

// ForEachPoint runs fn(i) for every i in [0, n) concurrently, each on its
// own goroutine (each point's replications still take run slots
// individually), and waits for all of them. The returned error is the
// lowest-index failure, so error reporting is deterministic regardless of
// scheduling. fn must write its results into caller-owned,
// index-addressed storage.
func ForEachPoint(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
