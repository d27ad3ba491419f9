package server

// Checkpoint regression tests: disk-full fail-stop, the checkpoint
// running concurrently with serving traffic (puts, deletes driving
// merge-at-empty compaction, and scans) on 1- and 4-shard disk engines, a
// scan pinned across a whole checkpoint, and the progress gauges.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"btreeperf/internal/pagestore"
	"btreeperf/internal/query"
)

// TestCheckpointENOSPCPoisonsEngine fills the simulated disk so the
// background checkpoint's page writes hit ENOSPC: the engine must go
// fail-stop (StatusUnavail on every op, 503 /healthz) rather than ack
// writes against a half-written checkpoint.
func TestCheckpointENOSPCPoisonsEngine(t *testing.T) {
	// Probe run: the identical workload with checkpointing disabled
	// sizes the budget. The slack is smaller than one 4 KiB page
	// but covers ~90 more oplog records, so the checkpoint's first page
	// write — not the serving path — is what exceeds the budget.
	probe := pagestore.NewFailFS(nil, pagestore.FailPlan{})
	pe := newDiskEngine(t, DiskEngineConfig{Cap: 8, CacheNodes: 32, CheckpointOps: -1, FS: probe})
	for i := int64(0); i < 60; i++ {
		if _, err := pe.Put(i, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := pe.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	budget := probe.BytesWritten() + 2048 // before Close: Close checkpoints too
	pe.Close()

	fs := pagestore.NewFailFS(nil, pagestore.FailPlan{WriteBudget: budget})
	eng := newDiskEngine(t, DiskEngineConfig{
		Cap: 8, CacheNodes: 32, CheckpointOps: 50, FS: fs,
	})
	s, addr, shutdown := startServer(t, Config{Engine: eng})
	defer shutdown()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The first 60 puts mirror the probe byte for byte; commit 50 kicks
	// the background checkpoint, which runs out of disk mid-cut. Keep
	// writing until the poison surfaces as StatusUnavail.
	poisoned := false
	deadline := time.Now().Add(15 * time.Second)
	for i := int64(0); time.Now().Before(deadline); i++ {
		resp, err := c.Do(Request{Op: OpPut, Key: i, Val: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status == StatusUnavail {
			poisoned = true
			break
		}
	}
	if !poisoned {
		t.Fatal("engine never went fail-stop after the checkpoint ran out of disk")
	}
	if eng.Poisoned() == nil {
		t.Fatal("StatusUnavail answered but engine not poisoned")
	}
	// The checkpointer poisons the tree from inside the failing call and
	// counts the failure when that call returns: give it that instant.
	for eng.Stats().CheckpointFails == 0 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if eng.Stats().CheckpointFails == 0 {
		t.Fatal("poisoned, but no checkpoint failure was counted (wrong failure path?)")
	}

	h := httptest.NewServer(s.Handler())
	defer h.Close()
	hr, err := http.Get(h.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after disk-full checkpoint = %d, want 503; body: %s", hr.StatusCode, body)
	}
	mbody := httpGet(t, h.URL+"/metrics")
	if !strings.Contains(mbody, "poisoned=true") {
		t.Fatalf("metrics does not report the poisoning:\n%s", mbody)
	}
	if !strings.Contains(mbody, "ckpt_fails=") {
		t.Fatalf("metrics missing ckpt_fails:\n%s", mbody)
	}
}

// TestCheckpointConcurrentWithTraffic hammers 1- and 4-shard disk
// servers with concurrent puts, deletes (emptying leaves exercises the
// merge-at-empty compaction path under the cut), and scans while the
// low-threshold background checkpointer commits continuously. Run under
// -race this is the data-race proof for the cut's barrier and its page
// writes beside the writers'; afterwards every shard's tree must pass its
// invariant check and hold exactly the surviving keys.
func TestCheckpointConcurrentWithTraffic(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			var engines []Engine
			var disks []*DiskEngine
			for i := 0; i < shards; i++ {
				e := newDiskEngine(t, DiskEngineConfig{
					Path:          filepath.Join(dir, fmt.Sprintf("shard-%d.db", i)),
					Cap:           8,
					CacheNodes:    64,
					CheckpointOps: 200,
				})
				engines = append(engines, e)
				disks = append(disks, e)
			}
			cfg := Config{Shards: shards}
			if shards == 1 {
				cfg.Engine = engines[0]
			} else {
				cfg.Engines = engines
			}
			_, addr, shutdown := startServer(t, cfg)

			const (
				writers    = 3
				perWriter  = 1200
				delEvery   = 3 // a third of the writes are later deleted
				scanPasses = 6
			)
			var wg sync.WaitGroup
			errc := make(chan error, writers+1)
			for w := 0; w < writers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					c, err := Dial(addr)
					if err != nil {
						errc <- err
						return
					}
					defer c.Close()
					base := int64(w) * 1_000_000
					for i := int64(0); i < perWriter; i++ {
						k := base + i
						if _, err := c.Put(k, uint64(k)+1); err != nil {
							errc <- fmt.Errorf("writer %d put %d: %w", w, k, err)
							return
						}
						if i%delEvery == 0 {
							if _, err := c.Del(k); err != nil {
								errc <- fmt.Errorf("writer %d del %d: %w", w, k, err)
								return
							}
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := Dial(addr)
				if err != nil {
					errc <- err
					return
				}
				defer c.Close()
				for pass := 0; pass < scanPasses; pass++ {
					var bad error
					err := c.ScanAll(0, writers*1_000_000, 128, func(k int64, v uint64) {
						if bad == nil && v != uint64(k)+1 {
							bad = fmt.Errorf("scan pass %d: key %d = %d", pass, k, v)
						}
					})
					if err == nil {
						err = bad
					}
					if err != nil {
						errc <- fmt.Errorf("scan pass %d: %w", pass, err)
						return
					}
				}
			}()
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			shutdown()

			var checkpoints int64
			for i, e := range disks {
				checkpoints += e.Stats().Checkpoints
				if err := e.t.CheckInvariants(); err != nil {
					t.Fatalf("shard %d tree corrupt after concurrent checkpoints: %v", i, err)
				}
				if err := e.Close(); err != nil {
					t.Fatalf("shard %d close: %v", i, err)
				}
			}
			// Traffic past the 200-mutation threshold must have committed
			// more than one checkpoint per shard.
			if checkpoints <= int64(shards) {
				t.Fatalf("only %d checkpoints across %d shards: the background checkpointer never ran", checkpoints, shards)
			}

			// Reopen and verify the surviving keys — the committed
			// checkpoint plus oplog suffix must reconstruct exactly the model.
			for i := 0; i < shards; i++ {
				re := newDiskEngine(t, DiskEngineConfig{
					Path: filepath.Join(dir, fmt.Sprintf("shard-%d.db", i)), Cap: 8, CacheNodes: 64,
				})
				var kv []query.KV
				kv, _, err := re.Scan(0, writers*1_000_000, 10*writers*perWriter, kv)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range kv {
					// Writers used keys base + i (base a 1M multiple) and
					// deleted every delEvery-th i.
					if (e.Key%1_000_000)%delEvery == 0 || e.Val != uint64(e.Key)+1 {
						t.Fatalf("shard %d after reopen: key %d = %d (deleted key back, or wrong value)", i, e.Key, e.Val)
					}
				}
				re.Close()
			}
		})
	}
}

// TestScanStraddlesCheckpointInstall pins a scan mid-leaf-chain, runs a
// complete checkpoint — cut, page writes, commit — while the scan is
// parked, commits more writes after it, and then lets the scan finish.
// The scan must deliver every key exactly once in order: the checkpoint
// writes the pages the scan may hold under shared latches only and
// trims the oplog, but never changes the tree the scan is walking.
func TestScanStraddlesCheckpointInstall(t *testing.T) {
	eng := newDiskEngine(t, DiskEngineConfig{Cap: 8, CacheNodes: 64, CheckpointOps: -1})
	defer eng.Close()
	const n = 2000
	for i := int64(0); i < n; i++ {
		if _, err := eng.Put(i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Commit(); err != nil {
		t.Fatal(err)
	}

	parked := make(chan struct{})  // scan reached the middle
	release := make(chan struct{}) // checkpoint done, scan may proceed
	scanDone := make(chan error, 1)
	go func() {
		var next int64
		err := eng.t.Range(0, n-1, func(k int64, v uint64) bool {
			if k != next || v != uint64(k) {
				scanDone <- fmt.Errorf("scan out of order: got %d (val %d), want %d", k, v, next)
				return false
			}
			next++
			if k == n/2 {
				close(parked)
				<-release
			}
			return true
		})
		if err == nil && next != n {
			err = fmt.Errorf("scan saw %d keys, want %d", next, n)
		}
		scanDone <- err
	}()

	<-parked
	before := eng.t.Checkpoints()
	if _, err := eng.t.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if eng.t.Checkpoints() != before+1 {
		t.Fatalf("checkpoint did not count: %d -> %d", before, eng.t.Checkpoints())
	}
	// The new active oplog file must accept appends while the scan is parked.
	for i := int64(0); i < 50; i++ {
		if _, err := eng.Put(1_000_000+i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Commit(); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-scanDone; err != nil {
		t.Fatal(err)
	}
	if err := eng.t.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCkptPagesDoneAtMapSync holds a background checkpoint's first
// fsync of the tree file — every marked page and the map are written, the
// commit not yet begun — and reads the progress gauges there: done must
// equal total, which counts the map too, and both must be back to zero
// once the checkpoint is over.
func TestCkptPagesDoneAtMapSync(t *testing.T) {
	const keys = 210
	fs := pagestore.NewFailFS(nil, pagestore.FailPlan{})
	held, release := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool // not the store's creation
	var once sync.Once
	fs.AroundSync = func(name string, f pagestore.File) error {
		if armed.Load() && strings.HasSuffix(name, "tree.db") {
			once.Do(func() {
				close(held)
				<-release
			})
		}
		return f.Sync()
	}
	eng := newDiskEngine(t, DiskEngineConfig{Cap: 8, CacheNodes: 64, CheckpointOps: keys, FS: fs})
	defer eng.Close()
	armed.Store(true)
	for i := int64(0); i < keys; i++ {
		if _, err := eng.Put(i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Commit(); err != nil { // the debt reaches CheckpointOps: kicks the checkpoint
		t.Fatal(err)
	}
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("no checkpoint reached its map fsync")
	}
	st := eng.Stats()
	close(release)
	if st.CkptChunksTotal < 2 || st.CkptChunksDone != st.CkptChunksTotal {
		t.Fatalf("at the map fsync: ckpt_chunks_done=%d ckpt_chunks_total=%d, want all of at least one page and the map",
			st.CkptChunksDone, st.CkptChunksTotal)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st = eng.Stats(); (st.Checkpoints == 0 || st.CkptChunksTotal != 0) && time.Now().Before(deadline); st = eng.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.Checkpoints == 0 || st.CkptChunksDone != 0 || st.CkptChunksTotal != 0 {
		t.Fatalf("after the checkpoint: checkpoints=%d ckpt_chunks_done=%d ckpt_chunks_total=%d, want 1, 0, 0",
			st.Checkpoints, st.CkptChunksDone, st.CkptChunksTotal)
	}
}
