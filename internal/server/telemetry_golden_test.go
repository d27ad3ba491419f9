package server

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"btreeperf/internal/metrics"
	"btreeperf/internal/repl"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current encoders")

// rough is a deterministic stream of numbers with no round values in it,
// so an encoder that reorders float arithmetic or drops a digit shows up
// in the golden files.
type rough uint64

func (r *rough) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 33)
}

// n is an integer in [1, max].
func (r *rough) n(max int64) int64 { return 1 + int64(r.next()%uint64(max)) }

// f is a float in (0, scale).
func (r *rough) f(scale float64) float64 { return scale * (float64(r.next()%999983) + 0.37) / 999984 }

// hist draws a count for each of eight powers of two around 2^mid ns and
// records that many samples at three quarters of it (the values the
// recording's log₂ buckets reported).
func (r *rough) hist(mid int) metrics.HistSnapshot {
	var h metrics.Hist
	for b := mid - 3; b <= mid+4; b++ {
		n := r.n(5000)
		h.ObserveN(n*(3<<(b-2)), n)
	}
	return h.Snapshot()
}

// synthShard is a shard scrape as the gather step would have captured it:
// counters, engine stats, governor, and a window whose lock sample (when
// measured) covers `levels` levels.
func synthShard(r *rough, id, levels int, measured, disk, olc bool) shardScrape {
	sc := shardScrape{
		id:        id,
		height:    levels,
		keys:      r.n(900000),
		indexKeys: r.n(1000),
		seq:       r.n(1 << 40),
		gov: GovStatus{
			State: GovState(id % 3), RootRhoW: r.f(0.7), Rho: 0.5, ExitRho: 0.4,
			Transitions: r.n(9), ConnRejects: 3,
		},
	}
	for c := range sc.ctr[:cCommitGroups] {
		sc.ctr[c] = r.n(1 << 33)
	}
	// The draw of a counter since deleted (requests shed Busy at a full
	// work queue), so every later number in the files is still the
	// recorded one.
	r.n(1 << 33)
	sc.win = window{
		Dt:        r.f(20),
		Ops:       r.n(1 << 22),
		ObsMeanNs: r.f(9000),
		OpHist:    r.hist(11),
	}
	sc.win.OpRate = float64(sc.win.Ops) / sc.win.Dt
	sc.es = EngineStats{Splits: r.n(1 << 20), Restarts: r.n(1 << 12), Crossings: r.n(1 << 12)}
	if olc {
		sc.es.ReadRestarts, sc.es.ReadFallbacks = r.n(1<<16), r.n(1<<8)
		// Younger than the recording too, so drawn from a stream of its
		// own (see the commit-pipeline rows below).
		r3 := rough(2035 + id)
		sc.es.StaleHints = r3.n(1 << 10)
	}
	if disk {
		sc.es.Recovered, sc.es.Appended, sc.es.Synced = r.n(1<<20), r.n(1<<24), r.n(1<<24)
		sc.es.OplogBytes, sc.es.Fsyncs, sc.es.Checkpoints = r.n(1<<30), r.n(1<<16), r.n(40)
		sc.es.CheckpointLag, sc.es.CheckpointFails = r.n(1<<18), r.n(3)
		sc.es.SeqAppended, sc.es.SeqDurable, sc.es.SeqLowest = r.n(1<<40), r.n(1<<40), r.n(1<<30)
		sc.es.RetainedSegs, sc.es.RetainedBytes = r.n(12), r.n(1<<28)
		sc.es.CkptPauseLastNs, sc.es.CkptPauseMaxNs = r.n(1<<18), r.n(1<<22)
		sc.es.CkptChunksDone, sc.es.CkptChunksTotal = r.n(300), r.n(900)
	}
	if measured {
		sc.win.Measured = sc.win.Dt * r.f(0.03)
		sc.win.HeardRate, sc.win.HeardMeanNs = r.f(4e5), r.f(9000)
		for lvl := 1; lvl <= levels; lvl++ {
			lr := metrics.LevelRates{
				Level:   lvl,
				LambdaR: r.f(3e5), LambdaW: r.f(8e4) / float64(lvl*lvl),
				MuR: 1e6 + r.f(4e6), MuW: 5e5 + r.f(2e6),
				MeanHoldR: r.f(2e-6), MeanHoldW: r.f(4e-6),
				MeanWaitR: r.f(1e-6), MeanWaitW: r.f(3e-6),
				RhoW:      r.f(0.95) / float64(levels-lvl+1),
				WaitHistW: r.hist(9),
			}
			if olc {
				lr.ReadRestarts, lr.ReadFallbacks = r.n(1<<10), r.n(1<<4)
				lr.RestartRate, lr.FallbackRate = r.f(900), r.f(9)
			}
			sc.win.Rates = append(sc.win.Rates, lr)
		}
	}
	if disk {
		// The commit-pipeline rows are younger than the recording the golden
		// files started from: they draw from a stream of their own, so every
		// older number in the files is still the recorded one.
		r2 := rough(2019 + id)
		sc.ctr[cCommitGroups], sc.ctr[cCommitBatches] = r2.n(1<<20), r2.n(1<<22)
		sc.win.CommitWaitMeanNs, sc.win.CommitWaitHist = r2.f(6e5), r2.hist(18)
		// The store's slot gauges are younger still: a stream of their own.
		r4 := rough(2046 + id)
		sc.es.StoreSlots = r4.n(1 << 16)
		sc.es.StoreFreeSlots = r4.n(sc.es.StoreSlots + 1)
		// So are the oplog's fsync times and the checkpoint's write-back.
		r6 := rough(2061 + id)
		sc.win.FsyncHist = r6.hist(18)
		sc.es.CkptWriteLastNs, sc.es.CkptSyncLastNs = r6.n(1<<35), r6.n(1<<30)
	}
	if !disk {
		// Lends are the youngest engine counter: a stream of their own.
		r5 := rough(2055 + id)
		sc.es.Lends = r5.n(1 << 18)
	}
	sc.evaluate()
	return sc
}

// goldenCaptures are the five synthetic captures the golden files render.
// The files were recorded from the hand-written renderer this table
// replaced, fed these same captures, so they pin its output and are not
// the new encoders' self-portrait.
func goldenCaptures() map[string]*capture {
	base := func(alg, engine string, shards ...shardScrape) *capture {
		return &capture{
			uptime: 4321.0987, algorithm: alg, engine: engine, capacity: 64, conns: 17,
			badFrames: 5, readTimeouts: 2, writeTimeouts: 1, shards: shards,
		}
	}
	r := rough(1990)
	out := map[string]*capture{
		"mem_olc":      base("olc", "mem", synthShard(&r, 0, 3, true, false, true)),
		"mem_nosample": base("link-type", "mem", synthShard(&r, 0, 4, false, false, false)),
		"disk_leader":  base("link-type(disk)", "disk", synthShard(&r, 0, 3, false, true, false)),
		"follower":     base("link-type(disk)", "disk", synthShard(&r, 0, 2, false, true, false)),
		"link_4shards": base("link-type", "mem",
			synthShard(&r, 0, 3, true, false, false), synthShard(&r, 1, 3, true, false, false),
			synthShard(&r, 2, 2, false, false, false), synthShard(&r, 3, 3, true, false, false)),
	}
	out["mem_nosample"].indexed = true
	out["mem_nosample"].shards[0].gov.Disabled = true
	out["link_4shards"].shards[1].poisoned = true
	out["disk_leader"].repl = &replicationJSON{
		Role: "leader", Epoch: 3, Acks: 1, AckTimeouts: 4, NotLeader: 0, Lagging: 0,
		OpsShipped: 918273, BytesShipped: 22038552, AcksRecv: 40127, Snapshots: 2, Evictions: 1,
		Followers: []repl.FollowerStats{
			{ID: 7, Addr: "127.0.0.1:7301", Connected: true, Acked: []int64{918270}, LagSeqs: 3, LagBytes: 72},
			{ID: 9, Addr: "10.0.0.2:7301?a=<b>&c", Connected: false, Acked: []int64{900000}, LagSeqs: 18273, LagBytes: 438552},
		},
	}
	out["follower"].repl = &replicationJSON{
		Role: "follower", Epoch: 3, NotLeader: 12, Lagging: 34,
		Applied: []int64{918001}, Heads: []int64{918273}, LagSeqs: 272,
		OpsApplied: 918001, Snapshots: 1, Reconnects: 2, Connected: true,
	}
	return out
}

func TestGoldenMetrics(t *testing.T) {
	for name, c := range goldenCaptures() {
		var text, js bytes.Buffer
		c.writeText(&text)
		if err := c.writeJSON(&js); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for ext, got := range map[string][]byte{".txt": text.Bytes(), ".json": js.Bytes()} {
			path := filepath.Join("testdata", "metrics_"+name+ext)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from the recorded rendering\n got: %s\nwant: %s", path, got, want)
			}
		}
	}
}

// TestGoldenModel pins /debug/model's per-shard section — the per-level
// table, the predicted-vs-observed response line and the root ρ_w line —
// over the same five captures.
func TestGoldenModel(t *testing.T) {
	for name, c := range goldenCaptures() {
		var got bytes.Buffer
		for _, sc := range c.shards {
			fmt.Fprintf(&got, "--- shard %d ---\n", sc.id)
			modelSection(&got, sc)
		}
		path := filepath.Join("testdata", "model_"+name+".txt")
		if *update {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs from the recorded rendering\n got: %s\nwant: %s", path, got.Bytes(), want)
		}
	}
}
