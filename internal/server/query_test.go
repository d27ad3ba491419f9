package server

import (
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"btreeperf/internal/cbtree"
	"btreeperf/internal/pagestore"
	"btreeperf/internal/query"
	"btreeperf/internal/xrand"
)

// queryEngineKinds enumerates the engine configurations the query tests
// run against: the in-memory cbtree and the durable disk engine, so the
// scan path is exercised over both leaf-chain implementations.
var queryEngineKinds = []struct {
	name string
	cfg  func(t *testing.T, shards int) Config
}{
	{"mem", func(t *testing.T, shards int) Config {
		return Config{Algorithm: cbtree.LinkType, Shards: shards, Capacity: 8}
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

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestScanEmptyRange pins the empty-page contract: an empty or inverted
// range answers StatusOK with zero entries and no token — emptiness is
// not an error (StatusMiss is a point-op status only).
func TestScanEmptyRange(t *testing.T) {
	_, addr, shutdown := startServer(t, Config{Algorithm: cbtree.LinkType})
	defer shutdown()
	c := dialT(t, addr)

	if _, err := c.Put(5, 50); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int64{{7, 7}, {10, 3}, {100, 200}} {
		page, tok, err := c.Scan(r[0], r[1], 0, nil)
		if err != nil {
			t.Fatalf("scan [%d,%d): %v", r[0], r[1], err)
		}
		if len(page) != 0 || tok != nil {
			t.Fatalf("scan [%d,%d): %d entries, token %v; want empty OK page", r[0], r[1], len(page), tok)
		}
	}
}

// TestScanPagingVsOracle pages the full keyspace and several subranges
// through servers of both engine kinds and 1 or 4 shards, comparing the
// merged stream against a single sorted oracle: every key exactly once,
// globally ascending, values intact, across every page-size the wire
// allows (1, an odd mid-size, and the max).
func TestScanPagingVsOracle(t *testing.T) {
	for _, kind := range queryEngineKinds {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", kind.name, shards), func(t *testing.T) {
				_, addr, shutdown := startServer(t, kind.cfg(t, shards))
				defer shutdown()
				c := dialT(t, addr)

				rng := rand.New(rand.NewPCG(31, 0))
				oracle := map[int64]uint64{}
				for len(oracle) < 700 {
					k := int64(rng.IntN(1 << 14))
					v := rng.Uint64()
					oracle[k] = v
					if _, err := c.Put(k, v); err != nil {
						t.Fatal(err)
					}
				}
				keys := make([]int64, 0, len(oracle))
				for k := range oracle {
					keys = append(keys, k)
				}
				sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })

				check := func(lo, hi int64, limit int) {
					t.Helper()
					i := sort.Search(len(keys), func(j int) bool { return keys[j] >= lo })
					var got []query.KV
					err := c.ScanAll(lo, hi, limit, func(k int64, v uint64) {
						got = append(got, query.KV{Key: k, Val: v})
					})
					if err != nil {
						t.Fatalf("scan [%d,%d) limit %d: %v", lo, hi, limit, err)
					}
					for _, e := range got {
						if i >= len(keys) || keys[i] >= hi {
							t.Fatalf("scan [%d,%d): extra key %d past oracle", lo, hi, e.Key)
						}
						if e.Key != keys[i] || e.Val != oracle[keys[i]] {
							t.Fatalf("scan [%d,%d): got (%d,%d), oracle (%d,%d)",
								lo, hi, e.Key, e.Val, keys[i], oracle[keys[i]])
						}
						i++
					}
					if i < len(keys) && keys[i] < hi {
						t.Fatalf("scan [%d,%d) limit %d: stopped before oracle key %d", lo, hi, limit, keys[i])
					}
				}

				for _, limit := range []int{1, 7, MaxScanLimit} {
					check(math.MinInt64, math.MaxInt64, limit)
					check(0, 1<<14, limit)
					check(100, 5000, limit)
					check(keys[10], keys[len(keys)-10], limit)
				}
			})
		}
	}
}

// TestScanUnderMutation is the acceptance test for cursor correctness
// under concurrent structural change: writers churn the odd keys (puts,
// deletes — forcing splits and, on the mem engine, Compact-driven leaf
// merges) while a scanner pages the whole range with a small limit. The
// stable even keys, which no writer touches, must each appear exactly
// once in ascending order on every full pass; churned keys may come and
// go but whatever appears must keep the global order invariant.
func TestScanUnderMutation(t *testing.T) {
	for _, kind := range queryEngineKinds {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", kind.name, shards), func(t *testing.T) {
				const n = 400 // stable keys 0,2,...,798
				s, addr, shutdown := startServer(t, kind.cfg(t, shards))
				defer shutdown()

				setup := dialT(t, addr)
				for k := int64(0); k < 2*n; k += 2 {
					if _, err := setup.Put(k, uint64(k)*3); err != nil {
						t.Fatal(err)
					}
				}

				stop := make(chan struct{})
				var wg sync.WaitGroup
				for w := 0; w < 3; w++ {
					wg.Add(1)
					go func(seed uint64) {
						defer wg.Done()
						c, err := Dial(addr)
						if err != nil {
							t.Error(err)
							return
						}
						defer c.Close()
						rng := rand.New(rand.NewPCG(seed, 0))
						for i := 0; ; i++ {
							select {
							case <-stop:
								return
							default:
							}
							k := int64(rng.IntN(n))*2 + 1 // odd: never a stable key
							if rng.IntN(3) == 0 {
								_, err = c.Del(k)
							} else {
								_, err = c.Put(k, rng.Uint64())
							}
							if err != nil {
								t.Error(err)
								return
							}
							// Periodic compaction churns the mem engine's leaf
							// chain from the other side: scans must survive
							// empty-leaf unlinking, not just splits.
							if i%512 == 0 {
								if me, ok := s.shards[int(seed)%len(s.shards)].eng.(*memEngine); ok {
									me.t.Compact()
								}
							}
						}
					}(uint64(w + 1))
				}

				scanner := dialT(t, addr)
				for pass := 0; pass < 20; pass++ {
					last := int64(math.MinInt64)
					nextStable := int64(0)
					err := scanner.ScanAll(0, 2*n, 13, func(k int64, v uint64) {
						if k <= last {
							t.Errorf("pass %d: key %d after %d — order broken", pass, k, last)
						}
						last = k
						if k%2 == 0 {
							if k != nextStable {
								t.Errorf("pass %d: stable key %d, want %d", pass, k, nextStable)
							}
							if v != uint64(k)*3 {
								t.Errorf("pass %d: stable key %d has value %d, want %d", pass, k, v, uint64(k)*3)
							}
							nextStable = k + 2
						}
					})
					if err != nil {
						t.Fatalf("pass %d: %v", pass, err)
					}
					if nextStable != 2*n {
						t.Fatalf("pass %d: stable keys stopped at %d, want %d", pass, nextStable, 2*n)
					}
					if t.Failed() {
						break
					}
				}
				close(stop)
				wg.Wait()
			})
		}
	}
}

// TestScanBadToken sends content-level garbage tokens: each must answer
// StatusBadRequest on the same connection (not kill it), and the
// connection must remain fully usable — point ops and well-formed scans
// afterwards still work.
func TestScanBadToken(t *testing.T) {
	_, addr, shutdown := startServer(t, Config{Algorithm: cbtree.LinkType, Shards: 4, Index: true})
	defer shutdown()
	c := dialT(t, addr)

	for k := int64(0); k < 50; k++ {
		if _, err := c.Put(k, uint64(k)); err != nil {
			t.Fatal(err)
		}
	}

	wrongCount := query.EncodeToken(nil, []int64{5})            // 1 cursor, server has 4 shards
	outOfRange := query.EncodeToken(nil, []int64{5, 5, 5, 999}) // cursor past hi
	bad := [][]byte{
		{0xff},       // count 255 > MaxShards
		{4, 1, 2, 3}, // truncated cursors
		wrongCount,
		outOfRange,
	}
	for i, tok := range bad {
		resp, err := c.Do(Request{Op: OpScan, Key: 0, Hi: 100, Limit: 8, Token: tok})
		if err != nil {
			t.Fatalf("bad token %d: transport error %v (content errors must not kill the conn)", i, err)
		}
		if resp.Status != StatusBadRequest {
			t.Fatalf("bad token %d: status %s, want bad-request", i, StatusName(resp.Status))
		}
	}
	// Lookup with a malformed token takes the same path.
	if resp, err := c.Do(Request{Op: OpLookup, Val: 1, Token: []byte{9, 9}}); err != nil || resp.Status != StatusBadRequest {
		t.Fatalf("lookup bad token: status=%v err=%v", resp.Status, err)
	}

	// The connection survived: point ops and a clean scan still work.
	if v, ok, err := c.Get(7); err != nil || !ok || v != 7 {
		t.Fatalf("get after bad tokens: v=%d ok=%v err=%v", v, ok, err)
	}
	n := 0
	if err := c.ScanAll(0, 50, 8, func(int64, uint64) { n++ }); err != nil {
		t.Fatalf("scan after bad tokens: %v", err)
	}
	if n != 50 {
		t.Fatalf("scan after bad tokens saw %d keys, want 50", n)
	}
}

func TestSeekGE(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, addr, shutdown := startServer(t, Config{Algorithm: cbtree.LinkType, Shards: shards})
			defer shutdown()
			c := dialT(t, addr)
			for _, k := range []int64{10, 20, 30} {
				if _, err := c.Put(k, uint64(k)*7); err != nil {
					t.Fatal(err)
				}
			}
			cases := []struct {
				at, want int64
				ok       bool
			}{
				{math.MinInt64, 10, true}, {5, 10, true}, {10, 10, true},
				{11, 20, true}, {25, 30, true}, {30, 30, true}, {31, 0, false},
			}
			for _, tc := range cases {
				k, v, ok, err := c.SeekGE(tc.at)
				if err != nil {
					t.Fatalf("seek %d: %v", tc.at, err)
				}
				if ok != tc.ok || (ok && (k != tc.want || v != uint64(tc.want)*7)) {
					t.Fatalf("seek %d: (%d,%d,%v), want (%d,*,%v)", tc.at, k, v, ok, tc.want, tc.ok)
				}
			}
		})
	}
}

// TestLookupVsBruteForce checks the secondary index against the
// authoritative answer — a full scan filtered by value — through puts,
// re-points, and deletes, paged with a small limit.
func TestLookupVsBruteForce(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, addr, shutdown := startServer(t, Config{Algorithm: cbtree.LinkType, Shards: shards, Index: true})
			defer shutdown()
			c := dialT(t, addr)

			rng := xrand.New(97)
			for i := 0; i < 2000; i++ {
				k := int64(rng.IntN(300))
				switch rng.IntN(10) {
				case 0:
					if _, err := c.Del(k); err != nil {
						t.Fatal(err)
					}
				default:
					if _, err := c.Put(k, uint64(rng.IntN(16))); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Brute force: one scan, bucketed by value.
			want := map[uint64][]int64{}
			if err := c.ScanAll(math.MinInt64, math.MaxInt64, 0, func(k int64, v uint64) {
				want[v] = append(want[v], k)
			}); err != nil {
				t.Fatal(err)
			}

			for v := uint64(0); v < 16; v++ {
				var got []int64
				var token []byte
				for {
					keys, next, err := c.Lookup(v, 3, token)
					if err != nil {
						t.Fatalf("lookup %d: %v", v, err)
					}
					got = append(got, keys...)
					if next == nil {
						break
					}
					token = next
				}
				if len(got) != len(want[v]) {
					t.Fatalf("value %d: %d keys, brute force %d", v, len(got), len(want[v]))
				}
				for i := range got {
					if got[i] != want[v][i] {
						t.Fatalf("value %d position %d: %d != %d", v, i, got[i], want[v][i])
					}
				}
			}
		})
	}
}

// TestLookupWithoutIndex pins that an index-less server answers lookups
// with StatusBadRequest rather than a misleading empty page.
func TestLookupWithoutIndex(t *testing.T) {
	_, addr, shutdown := startServer(t, Config{Algorithm: cbtree.LinkType})
	defer shutdown()
	c := dialT(t, addr)
	if _, err := c.Put(1, 100); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Lookup(100, 0, nil); err == nil {
		t.Fatal("lookup on index-less server succeeded; want bad-request")
	}
}

// TestLookupUnavailWhenPoisoned: a lookup reads only the index, which a
// failed rebuild leaves partial and a poisoned engine leaves frozen, so
// it must answer the page-shaped StatusUnavail like every op that reads
// the engine — whether the engine failed before the server was built
// over it or under traffic afterwards.
func TestLookupUnavailWhenPoisoned(t *testing.T) {
	probe := pagestore.NewFailFS(nil, pagestore.FailPlan{})
	pe := newDiskEngine(t, DiskEngineConfig{Cap: 8, CacheNodes: 32, FS: probe})
	openSyncs := probe.Syncs()
	pe.Close()

	// 20 keys under value 7 are committed by the engine's first fsync;
	// its second fails.
	build := func(t *testing.T) *DiskEngine {
		fs := pagestore.NewFailFS(nil, pagestore.FailPlan{FailSyncAt: openSyncs + 2})
		eng := newDiskEngine(t, DiskEngineConfig{Cap: 8, CacheNodes: 32, FS: fs})
		for k := int64(0); k < 20; k++ {
			if _, err := eng.Put(k, 7); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Commit(); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	lookupUnavail := func(t *testing.T, s *Server, c *Client) {
		t.Helper()
		before := s.shards[0].ctr[cUnavail].Load()
		resp, err := c.Do(Request{Op: OpLookup, Val: 7, Limit: 100})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusUnavail || len(resp.Entries) != 0 {
			t.Fatalf("lookup over a poisoned engine: status %s with %d keys, want %s",
				StatusName(resp.Status), len(resp.Entries), StatusName(StatusUnavail))
		}
		// The worker flushes its tally after it releases the response.
		waitFor(t, "the lookup to be tallied unavail", func() bool {
			return s.shards[0].ctr[cUnavail].Load() == before+1
		})
	}

	t.Run("before New", func(t *testing.T) {
		eng := build(t)
		eng.Put(100, 7)
		if eng.Commit() == nil || eng.Poisoned() == nil {
			t.Fatal("the second fsync did not poison the engine")
		}
		s, addr, shutdown := startServer(t, Config{Engine: eng, Index: true})
		defer shutdown()
		lookupUnavail(t, s, dialT(t, addr))
	})
	t.Run("after New", func(t *testing.T) {
		s, addr, shutdown := startServer(t, Config{Engine: build(t), Index: true})
		defer shutdown()
		c := dialT(t, addr)
		if keys, _, err := c.Lookup(7, 100, nil); err != nil || len(keys) != 20 {
			t.Fatalf("healthy lookup: %d keys, %v; want 20", len(keys), err)
		}
		if resp, err := c.Do(Request{Op: OpPut, Key: 100, Val: 7}); err != nil || resp.Status != StatusUnavail {
			t.Fatalf("put whose fsync fails: %+v, %v; want StatusUnavail", resp, err)
		}
		lookupUnavail(t, s, c)
	})
}

// TestLookupIndexSurvivesReopen is the durability half of the index
// contract: the index has no journal of its own, so after the disk
// engines are closed and reopened (the recovery path kill -9 lands on),
// the index rebuilt from the recovered primary must agree with brute
// force again.
func TestLookupIndexSurvivesReopen(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	open := func() []Engine {
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

	// First life: write through the indexed server, remember the truth.
	want := map[uint64][]int64{}
	{
		s, addr, shutdown := startServer(t, Config{Engines: open(), Index: true})
		c := dialT(t, addr)
		rng := xrand.New(5)
		state := map[int64]uint64{}
		for i := 0; i < 1500; i++ {
			k := int64(rng.IntN(200))
			if rng.IntN(8) == 0 {
				if _, err := c.Del(k); err != nil {
					t.Fatal(err)
				}
				delete(state, k)
			} else {
				v := uint64(rng.IntN(12))
				if _, err := c.Put(k, v); err != nil {
					t.Fatal(err)
				}
				state[k] = v
			}
		}
		for k, v := range state {
			want[v] = append(want[v], k)
		}
		for v := range want {
			sort.Slice(want[v], func(a, b int) bool { return want[v][a] < want[v][b] })
		}
		c.Close()
		shutdown()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Second life: recover the primaries, rebuild the index, re-check.
	s, addr, shutdown := startServer(t, Config{Engines: open(), Index: true})
	defer func() {
		shutdown()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	c := dialT(t, addr)
	for v := uint64(0); v < 12; v++ {
		var got []int64
		var token []byte
		for {
			keys, next, err := c.Lookup(v, 5, token)
			if err != nil {
				t.Fatalf("lookup %d after reopen: %v", v, err)
			}
			got = append(got, keys...)
			if next == nil {
				break
			}
			token = next
		}
		if len(got) != len(want[v]) {
			t.Fatalf("value %d after reopen: %d keys, want %d", v, len(got), len(want[v]))
		}
		for i := range got {
			if got[i] != want[v][i] {
				t.Fatalf("value %d position %d after reopen: %d != %d", v, i, got[i], want[v][i])
			}
		}
	}
}

// TestQueryMetrics checks that query traffic lands in the op tallies the
// telemetry endpoint reports.
func TestQueryMetrics(t *testing.T) {
	s, addr, shutdown := startServer(t, Config{Algorithm: cbtree.LinkType, Shards: 2, Index: true})
	defer shutdown()
	c := dialT(t, addr)

	for k := int64(0); k < 100; k++ {
		if _, err := c.Put(k, uint64(k%5)); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := c.ScanAll(0, 100, 16, func(int64, uint64) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("scan saw %d keys", n)
	}
	if _, _, _, err := c.SeekGE(50); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Lookup(3, 0, nil); err != nil {
		t.Fatal(err)
	}

	var scans, scanKeys, seeks, lookups int64
	for _, sh := range s.shards {
		scans += sh.ctr[cScans].Load()
		scanKeys += sh.ctr[cScanKeys].Load()
		seeks += sh.ctr[cSeeks].Load()
		lookups += sh.ctr[cLookups].Load()
	}
	if scans < 7 { // 100 keys / 16 per page = 7 pages
		t.Errorf("scan pages tallied %d, want >= 7", scans)
	}
	if scanKeys < 100 {
		t.Errorf("scan keys tallied %d, want >= 100", scanKeys)
	}
	if seeks != 1 {
		t.Errorf("seeks tallied %d, want 1", seeks)
	}
	if lookups != 1 {
		t.Errorf("lookup pages tallied %d, want 1", lookups)
	}
}
