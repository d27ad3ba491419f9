package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"btreeperf/internal/cbtree"
	"btreeperf/internal/core"
)

// TestShardIndexDeterministic pins the routing contract every durability
// guarantee rides on: the shard of a key is a pure function of (key, n),
// always in range — the same key always lands on the same shard, across
// restarts and across processes (btload -audit-verify replays against a
// restarted server).
func TestShardIndexDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	for _, n := range []int{1, 2, 3, 4, 8, 16} {
		for i := 0; i < 10000; i++ {
			k := int64(rng.Uint64()) % (1 << 40)
			a, b := shardIndex(k, n), shardIndex(k, n)
			if a != b {
				t.Fatalf("shardIndex(%d, %d) not deterministic: %d vs %d", k, n, a, b)
			}
			if a < 0 || a >= n {
				t.Fatalf("shardIndex(%d, %d) = %d out of range", k, n, a)
			}
		}
	}
	// Negative keys are legal protocol keys and must route in range too.
	for _, k := range []int64{-1, -5, math.MinInt64, math.MaxInt64} {
		for _, n := range []int{1, 3, 8} {
			if idx := shardIndex(k, n); idx < 0 || idx >= n {
				t.Fatalf("shardIndex(%d, %d) = %d out of range", k, n, idx)
			}
		}
	}
}

// TestShardRouterSpread checks the splitmix64 mixer actually spreads a
// patterned (sequential) key stream: with 64k sequential keys over 8
// shards, every shard should hold within 3x of its fair share.
func TestShardRouterSpread(t *testing.T) {
	const n, keys = 8, 1 << 16
	var counts [n]int
	for i := 0; i < keys; i++ {
		counts[shardIndex(int64(i), n)]++
	}
	fair := keys / n
	for i, c := range counts {
		if c < fair/3 || c > fair*3 {
			t.Fatalf("shard %d holds %d of %d sequential keys (fair share %d): router not spreading", i, c, keys, fair)
		}
	}
}

// TestShardedRouterMatchesOracle runs a randomized mixed workload through
// a multi-shard server on one pipelined connection and checks every
// response against a single-map oracle applied in request order. One
// connection's responses arrive in request order, so agreement here means
// the router + per-shard execution is sequentially consistent with one
// tree. Afterwards it checks the partition invariants: Len sums across
// shards, and every live key is present in exactly the shard the router
// names (and no other).
func TestShardedRouterMatchesOracle(t *testing.T) {
	for _, shards := range []int{2, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, addr, shutdown := startServer(t, Config{
				Algorithm: cbtree.LinkType, Capacity: 8, Shards: shards,
			})
			defer shutdown()
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			const nOps = 20000
			const keySpace = 512 // small: lots of same-key collisions across ops
			oracle := make(map[int64]uint64)
			rng := rand.New(rand.NewPCG(42, 0))
			type sent struct {
				req      Request
				wantStat uint8
				wantVal  uint64
				hasVal   bool
			}
			pendingCh := make(chan sent, 256)
			var recvErr error
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				i := 0
				for p := range pendingCh {
					resp, err := c.Recv()
					if err != nil {
						recvErr = fmt.Errorf("recv %d: %w", i, err)
						return
					}
					if resp.Status != p.wantStat {
						recvErr = fmt.Errorf("op %d (%+v): status %d, oracle wants %d", i, p.req, resp.Status, p.wantStat)
						return
					}
					if p.hasVal && (!resp.HasVal || resp.Val != p.wantVal) {
						recvErr = fmt.Errorf("op %d (%+v): val %d/%v, oracle wants %d", i, p.req, resp.Val, resp.HasVal, p.wantVal)
						return
					}
					i++
				}
			}()
			for i := 0; i < nOps; i++ {
				key := int64(rng.Uint64() % keySpace)
				var p sent
				switch rng.Uint64() % 4 {
				case 0, 1: // get
					p.req = Request{Op: OpGet, Key: key}
					if v, ok := oracle[key]; ok {
						p.wantStat, p.wantVal, p.hasVal = StatusOK, v, true
					} else {
						p.wantStat = StatusMiss
					}
				case 2: // put
					v := rng.Uint64()
					p.req = Request{Op: OpPut, Key: key, Val: v}
					if _, ok := oracle[key]; ok {
						p.wantStat = StatusMiss // overwrite: not fresh
					} else {
						p.wantStat = StatusOK
					}
					oracle[key] = v
				default: // del
					p.req = Request{Op: OpDel, Key: key}
					if _, ok := oracle[key]; ok {
						p.wantStat = StatusOK
					} else {
						p.wantStat = StatusMiss
					}
					delete(oracle, key)
				}
				if err := c.Send(p.req); err != nil {
					t.Fatal(err)
				}
				pendingCh <- p
				if i%97 == 0 {
					c.Flush()
				}
			}
			c.Flush()
			close(pendingCh)
			wg.Wait()
			if recvErr != nil {
				t.Fatal(recvErr)
			}

			// Partition invariants.
			if got := s.Len(); got != len(oracle) {
				t.Fatalf("Len() = %d, oracle holds %d keys", got, len(oracle))
			}
			sum := 0
			for _, sh := range s.shards {
				sum += sh.eng.Len()
			}
			if sum != len(oracle) {
				t.Fatalf("shard Lens sum to %d, oracle holds %d keys", sum, len(oracle))
			}
			for key, val := range oracle {
				home := shardIndex(key, shards)
				for i, sh := range s.shards {
					v, ok, err := sh.eng.Get(key)
					if err != nil {
						t.Fatal(err)
					}
					if i == home {
						if !ok || v != val {
							t.Fatalf("key %d missing/wrong on its home shard %d: ok=%v v=%d want %d", key, home, ok, v, val)
						}
					} else if ok {
						t.Fatalf("key %d present on shard %d, home is %d: key on more than one shard", key, i, home)
					}
				}
			}
		})
	}
}

// TestShardedGovernorShedsPerShard forces one shard's governor over the
// saturation threshold and checks shedding is per shard: updates routed
// to the hot shard come back Overload while the other shards' updates
// keep succeeding — the router cannot steer keys, but a cold shard must
// not pay for a hot one.
func TestShardedGovernorShedsPerShard(t *testing.T) {
	const shards = 4
	const hot = 2
	var hotRho atomic.Bool
	s := New(Config{
		Algorithm: cbtree.LinkType, Shards: shards,
		Governor: GovernorConfig{Interval: 5 * time.Millisecond},
	})
	for i, sh := range s.shards {
		i := i
		sh.gov.rhoFn = func() float64 {
			if i == hot && hotRho.Load() {
				return 0.99
			}
			return 0.01
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Find keys homed on the hot shard and on a cold one.
	hotKey, coldKey := int64(-1), int64(-1)
	for k := int64(0); hotKey < 0 || coldKey < 0; k++ {
		switch shardIndex(k, shards) {
		case hot:
			hotKey = k
		default:
			if coldKey < 0 {
				coldKey = k
			}
		}
	}

	hotRho.Store(true)
	deadline := time.After(5 * time.Second)
	for GovState(s.shards[hot].gov.state.Load()) != GovOverloaded {
		select {
		case <-deadline:
			t.Fatal("hot shard governor never entered GovOverloaded")
		case <-time.After(time.Millisecond):
		}
	}

	resp, err := c.Do(Request{Op: OpPut, Key: hotKey, Val: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOverload {
		t.Fatalf("put to hot shard: status %d, want Overload", resp.Status)
	}
	resp, err = c.Do(Request{Op: OpPut, Key: coldKey, Val: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("put to cold shard: status %d, want OK (cold shards must not shed)", resp.Status)
	}
	// Gets pass even on the hot shard: only updates are shed.
	resp, err = c.Do(Request{Op: OpGet, Key: hotKey})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusMiss {
		t.Fatalf("get on hot shard: status %d, want Miss (reads must not be shed)", resp.Status)
	}
	if s.shards[hot].ctr[cShedOverload].Load() == 0 {
		t.Error("hot shard shed counter not incremented")
	}
	for i, sh := range s.shards {
		if i != hot && sh.ctr[cShedOverload].Load() != 0 {
			t.Errorf("cold shard %d shed %d updates", i, sh.ctr[cShedOverload].Load())
		}
	}

	// /healthz reports the aggregate as overloaded (503) with the hot
	// shard identified.
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	res, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz with one overloaded shard: %d, want 503\n%s", res.StatusCode, body)
	}
	if !strings.Contains(string(body), fmt.Sprintf("shard=%d state=overloaded", hot)) {
		t.Errorf("/healthz does not identify the overloaded shard:\n%s", body)
	}
}

// checkNoNaN walks any decoded JSON value and fails on NaN or Inf. The
// JSON encoder refuses non-finite floats outright (the scrape would 500
// or truncate), but the decode-side walk also catches "999999999999"-
// style sentinel garbage from float formatting having gone through %v.
func checkNoNaN(t *testing.T, path string, v any) {
	t.Helper()
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Errorf("%s is %v", path, x)
		}
	case map[string]any:
		for k, vv := range x {
			checkNoNaN(t, path+"."+k, vv)
		}
	case []any:
		for i, vv := range x {
			checkNoNaN(t, fmt.Sprintf("%s[%d]", path, i), vv)
		}
	}
}

// TestIdleServerTelemetryFinite is the zero-traffic regression scrape:
// every telemetry endpoint of a server that has served nothing — and is
// scraped again and again back to back, so the later windows are near
// zero-width with zero ops — must produce finite, parseable output. This
// pins the divide-by-zero guards in windowState.advance, metrics.Rates,
// and the model evaluation (λ=0 windows are not evaluated).
//
// The scrapes go on until one window lies wholly inside a quiet gap
// between two measurement epochs: a window in which the lock probes did
// not listen at all (measured_share 0) has no sample to take a rate of,
// and must say so (n/a in text, absent levels and zeros in JSON), not
// divide by its measured time. A disk engine's locks report to no probe,
// so every window of the disk passes is such a window.
func TestIdleServerTelemetryFinite(t *testing.T) {
	for _, tc := range []struct {
		shards int
		disk   bool
	}{{1, false}, {4, false}, {1, true}, {4, true}} {
		name := fmt.Sprintf("shards=%d", tc.shards)
		if tc.disk {
			name += "/disk"
		}
		t.Run(name, func(t *testing.T) {
			shards := tc.shards
			cfg := Config{Algorithm: cbtree.LinkType, Shards: shards}
			// The disk passes cover the checkpoint telemetry block
			// (pause last/max, chunks done/total, mutations-behind): an
			// idle engine must report them as finite zeros, never NaN
			// from a 0/0 progress ratio.
			if tc.disk {
				var engines []Engine
				for i := 0; i < shards; i++ {
					engines = append(engines, newDiskEngine(t, DiskEngineConfig{
						Path: filepath.Join(t.TempDir(), fmt.Sprintf("s%d.db", i)),
						Cap:  8, CacheNodes: 32,
					}))
				}
				if shards == 1 {
					cfg.Engine = engines[0]
				} else {
					cfg.Engines = engines
				}
			}
			s, _, shutdown := startServer(t, cfg)
			defer shutdown()
			hs := httptest.NewServer(s.Handler())
			defer hs.Close()

			quiet := false // a window with no measured time has been scraped
			for round := 0; round < 2 || !quiet; round++ {
				if round == 50 {
					t.Fatal("50 back-to-back scrapes and none fell between two epochs")
				}
				for _, ep := range []string{"/metrics", "/debug/model", "/healthz"} {
					body := httpGet(t, hs.URL+ep)
					for _, bad := range []string{"NaN", "nan", "+Inf", "-Inf"} {
						if strings.Contains(body, bad) {
							t.Errorf("round %d %s contains %q:\n%s", round, ep, bad, body)
						}
					}
					if ep == "/metrics" && strings.Contains(body, " measured_share=0.0000\n") &&
						!strings.Contains(body, "saturation root_rho_w=n/a ") {
						t.Errorf("round %d: text /metrics of a window with no measured time prints a utilization:\n%s", round, body)
					}
				}
				raw := httpGet(t, hs.URL+"/metrics?format=json")
				var decoded map[string]any
				if err := json.Unmarshal([]byte(raw), &decoded); err != nil {
					t.Fatalf("round %d: idle /metrics json does not parse: %v\n%s", round, err, raw)
				}
				checkNoNaN(t, "metrics", decoded)
				if got := decoded["shards"].(float64); int(got) != shards {
					t.Errorf("round %d: shards = %v, want %d", round, got, shards)
				}
				if got := decoded["ops_per_sec"].(float64); got != 0 {
					t.Errorf("round %d: idle ops_per_sec = %v, want 0", round, got)
				}
				wantGov := "ok"
				if tc.disk {
					wantGov = "disabled" // a durable shard has no governor
				}
				if got := decoded["governor"].(string); got != wantGov {
					t.Errorf("round %d: idle governor = %q, want %s (stale gauge?)", round, got, wantGov)
				}
				if share := decoded["measured_share"].(float64); share == 0 {
					quiet = true
					if decoded["levels"] != nil || decoded["root_rho_w"].(float64) != 0 {
						t.Errorf("round %d: a window with no measured time reports levels %v, root_rho_w %v",
							round, decoded["levels"], decoded["root_rho_w"])
					}
				} else if tc.disk {
					t.Errorf("round %d: disk engine measured_share = %v, want 0: no lock of it reports", round, share)
				}
				if tc.disk {
					body := httpGet(t, hs.URL+"/metrics")
					if !strings.Contains(body, "checkpoint pause_last_us=") ||
						!strings.Contains(body, "chunks_done=0 chunks_total=0") {
						t.Errorf("round %d: idle disk /metrics missing the checkpoint telemetry line:\n%s", round, body)
					}
					for _, f := range []string{"ckpt_pause_last_us", "ckpt_pause_max_us", "ckpt_chunks_done", "ckpt_chunks_total", "ckpt_fails"} {
						if _, ok := decoded[f]; !ok {
							t.Errorf("round %d: idle disk /metrics json missing %q", round, f)
						}
					}
				}
			}
		})
	}
}

// TestMultiShardMetrics drives traffic through a 4-shard server and
// checks the merged and per-shard telemetry views agree: shard blocks
// exist for every shard, their op counts sum to the merged count, the
// merged keys figure matches Len, and the text format carries per-shard
// ρ_w gauges.
func TestMultiShardMetrics(t *testing.T) {
	const shards = 4
	s, addr, shutdown := startServer(t, Config{Algorithm: cbtree.LinkType, Capacity: 8, Shards: shards, Prefill: 3000})
	defer shutdown()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 4000
	untilHeard(func() { // by every shard's probe
		for i := 0; i < n; i++ {
			c.Send(Request{Op: OpPut, Key: int64(i) * 13, Val: uint64(i)})
			c.Send(Request{Op: OpGet, Key: int64(i) * 13})
		}
		c.Flush()
		for i := 0; i < 2*n; i++ {
			if _, err := c.Recv(); err != nil {
				t.Fatal(err)
			}
		}
	})

	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	var m scrapedMetrics
	if err := json.Unmarshal([]byte(httpGet(t, hs.URL+"/metrics?format=json")), &m); err != nil {
		t.Fatal(err)
	}
	if m.Shards != shards || len(m.ShardBlocks) != shards {
		t.Fatalf("shards=%d blocks=%d, want %d", m.Shards, len(m.ShardBlocks), shards)
	}
	var keys int
	var gets, puts int64
	for i, b := range m.ShardBlocks {
		if b.Shard != i {
			t.Errorf("block %d labeled shard %d", i, b.Shard)
		}
		if b.Gets == 0 || b.Puts == 0 {
			t.Errorf("shard %d saw no traffic (gets=%d puts=%d): router not spreading", i, b.Gets, b.Puts)
		}
		if len(b.Levels) == 0 {
			t.Errorf("shard %d block has no levels", i)
		}
		keys += b.Keys
		gets += b.Gets
		puts += b.Puts
	}
	if keys != m.Keys || m.Keys != s.Len() {
		t.Errorf("keys: merged %d, blocks sum %d, Len %d", m.Keys, keys, s.Len())
	}
	if gets != m.Gets || puts != m.Puts {
		t.Errorf("ops: merged gets/puts %d/%d, blocks sum %d/%d", m.Gets, m.Puts, gets, puts)
	}
	if len(m.Levels) == 0 {
		t.Error("merged view has no levels")
	}

	text := httpGet(t, hs.URL+"/metrics")
	for i := 0; i < shards; i++ {
		if !strings.Contains(text, fmt.Sprintf("shard=%d ", i)) {
			t.Errorf("text /metrics missing shard=%d gauge line:\n%s", i, text)
		}
	}
	if !strings.Contains(text, "root_rho_w=") || !strings.Contains(text, "shards=4") {
		t.Errorf("text /metrics missing per-shard rho gauges or shard count:\n%s", text)
	}

	model := httpGet(t, hs.URL+"/debug/model")
	for i := 0; i < shards; i++ {
		if !strings.Contains(model, fmt.Sprintf("shard %d", i)) {
			t.Errorf("/debug/model missing shard %d section:\n%s", i, model)
		}
	}
	if !strings.Contains(model, "aggregate:") {
		t.Errorf("/debug/model missing aggregate verdict:\n%s", model)
	}
	// One forecast for the server, in ops/s, for the served algorithm
	// under core's name (the form bench/trace.go reads), headed by the
	// shard and level that bind.
	if !regexp.MustCompile(`predicted λ_\{ρ=\.5\} in ops/s: level [1-9]\d* of shard [0-3] \(`).MatchString(model) {
		t.Errorf("/debug/model forecast header names no binding shard and level:\n%s", model)
	}
	lines := regexp.MustCompile(`(?m)^\s+(\S+)\s+λ_eff = (\S+)$`).FindAllStringSubmatch(model, -1)
	if len(lines) != 1 || lines[0][1] != core.Link.String() {
		t.Errorf("/debug/model λ_eff lines %q, want one for %s:\n%s", lines, core.Link, model)
	}
}

// TestDrainThenCloseUnderScrape is the shutdown-ordering race test: a
// server under pipelined load and concurrent telemetry scrapes is
// drained (ctx cancel) while both keep running, then Close()d the moment
// Serve returns — exactly btserved's SIGTERM path. Under -race this
// catches any window where a scrape handler or a final group commit
// touches an engine Close is tearing down. Runs per engine kind and
// shard count.
func TestDrainThenCloseUnderScrape(t *testing.T) {
	kinds := []struct {
		name string
		cfg  func(t *testing.T, shards int) Config
	}{
		{"mem", func(t *testing.T, shards int) Config {
			return Config{Algorithm: cbtree.LinkType, Shards: shards}
		}},
		{"disk", func(t *testing.T, shards int) Config {
			dir := t.TempDir()
			var engines []Engine
			for i := 0; i < shards; i++ {
				e, err := NewDiskEngine(DiskEngineConfig{
					Path: filepath.Join(dir, fmt.Sprintf("shard-%d.db", i)),
					Cap:  8, CacheNodes: 64,
				})
				if err != nil {
					t.Fatal(err)
				}
				engines = append(engines, e)
			}
			return Config{Engines: engines}
		}},
	}
	for _, k := range kinds {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", k.name, shards), func(t *testing.T) {
				s := New(k.cfg(t, shards))
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				serveDone := make(chan error, 1)
				go func() { serveDone <- s.Serve(ctx, ln) }()

				hs := httptest.NewServer(s.Handler())
				defer hs.Close()

				var wg sync.WaitGroup
				stop := make(chan struct{})
				// Load: pipelined mixed ops; errors expected once the drain
				// cuts the conn.
				for w := 0; w < 2; w++ {
					wg.Add(1)
					go func(seed uint64) {
						defer wg.Done()
						c, err := Dial(ln.Addr().String())
						if err != nil {
							return
						}
						defer c.Close()
						rng := rand.New(rand.NewPCG(seed, 0))
						inFlight := 0
						for {
							select {
							case <-stop:
								return
							default:
							}
							k := int64(rng.Uint64() % 4096)
							if err := c.Send(Request{Op: OpPut, Key: k, Val: rng.Uint64()}); err != nil {
								return
							}
							inFlight++
							if inFlight == 64 {
								if err := c.Flush(); err != nil {
									return
								}
								for ; inFlight > 0; inFlight-- {
									if _, err := c.Recv(); err != nil {
										return
									}
								}
							}
						}
					}(uint64(w) + 1)
				}
				// Scrapers: hammer every endpoint through the drain and past
				// Close; after Close they must see 503, never a torn read.
				for w := 0; w < 2; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						eps := []string{"/metrics", "/metrics?format=json", "/debug/model", "/healthz"}
						for i := 0; ; i++ {
							select {
							case <-stop:
								return
							default:
							}
							res, err := http.Get(hs.URL + eps[i%len(eps)])
							if err != nil {
								continue
							}
							io.Copy(io.Discard, res.Body)
							res.Body.Close()
						}
					}()
				}

				time.Sleep(50 * time.Millisecond)
				cancel() // SIGTERM
				select {
				case err := <-serveDone:
					if err != nil {
						t.Errorf("Serve: %v", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("Serve did not drain")
				}
				// btserved closes engines immediately after Serve returns,
				// with scrapers still running.
				if err := s.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
				// A scrape after Close answers 503, not a crash.
				res, err := http.Get(hs.URL + "/metrics")
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
				if res.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("scrape after Close: %d, want 503", res.StatusCode)
				}
				close(stop)
				wg.Wait()
				if err := s.Close(); err != nil { // idempotent
					t.Errorf("second Close: %v", err)
				}
			})
		}
	}
}

// TestShardedDiskRecovery is the sharded crash-durability test: acked
// writes against a 4-shard disk server must survive losing the process.
// The crash is simulated in-process by abandoning the engines without
// Close (the pagestore holds no lock), then reopening the same
// directories: recovery replays each shard's journal independently, and
// every acknowledged write must be there — on its home shard.
func TestShardedDiskRecovery(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	mkEngines := func() []Engine {
		var engines []Engine
		for i := 0; i < shards; i++ {
			e, err := NewDiskEngine(DiskEngineConfig{
				Path: filepath.Join(dir, fmt.Sprintf("shard-%d.db", i)),
				Cap:  8, CacheNodes: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			engines = append(engines, e)
		}
		return engines
	}

	s := New(Config{Engines: mkEngines()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	const n = 2000
	acked := make(map[int64]uint64)
	for i := 0; i < n; i++ {
		k := int64(i) * 7
		v := uint64(i)*0x9E3779B97F4A7C15 + 1
		if _, err := c.Put(k, v); err != nil {
			t.Fatal(err)
		}
		// Put returned: the response was written, so the batch's group
		// commit fsync already happened — this write is acked-durable.
		acked[k] = v
	}
	c.Close()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	// Crash: the engines are abandoned, never Closed — whatever is not
	// already durable is lost, like a kill -9.

	reopened := mkEngines()
	defer func() {
		for _, e := range reopened {
			e.Close()
		}
	}()
	total := 0
	for i, e := range reopened {
		total += e.Len()
		if rec := e.(*DiskEngine).Recovered(); rec == 0 {
			t.Errorf("shard %d recovered 0 ops (journal replay did not run)", i)
		}
	}
	if total != len(acked) {
		t.Errorf("recovered %d keys across shards, acked %d", total, len(acked))
	}
	for k, v := range acked {
		home := shardIndex(k, shards)
		got, ok, err := reopened[home].Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || got != v {
			t.Errorf("acked write lost after crash: key %d on shard %d: ok=%v v=%d want %d", k, home, ok, got, v)
		}
	}
}

// TestShardedSingleShardDelegates pins the N=1 compatibility contract:
// shard-0 accessors, no shard blocks in JSON, no shard= lines in text.
func TestShardedSingleShardDelegates(t *testing.T) {
	s, _, shutdown := startServer(t, Config{Algorithm: cbtree.LinkType, Prefill: 100})
	defer shutdown()
	if s.NumShards() != 1 {
		t.Fatalf("default NumShards = %d, want 1", s.NumShards())
	}
	sh := s.shards[0]
	if sh.tree == nil || s.Engine() != sh.eng || sh.probe == nil {
		t.Fatal("shard 0 has no tree or probe, or Engine is not shard 0's")
	}
	if s.Len() != sh.tree.Len() {
		t.Fatalf("Len %d != tree len %d", s.Len(), sh.tree.Len())
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	var m scrapedMetrics
	if err := json.Unmarshal([]byte(httpGet(t, hs.URL+"/metrics?format=json")), &m); err != nil {
		t.Fatal(err)
	}
	if m.Shards != 1 || m.ShardBlocks != nil {
		t.Errorf("single-shard JSON: shards=%d blocks=%v, want 1/none", m.Shards, m.ShardBlocks)
	}
	text := httpGet(t, hs.URL+"/metrics")
	if strings.Contains(text, "shard=") {
		t.Errorf("single-shard text /metrics has shard= lines:\n%s", text)
	}
}
