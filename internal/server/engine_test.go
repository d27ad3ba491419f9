package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"btreeperf/internal/pagestore"
)

func newDiskEngine(t *testing.T, cfg DiskEngineConfig) *DiskEngine {
	t.Helper()
	if cfg.Path == "" {
		cfg.Path = filepath.Join(t.TempDir(), "tree.db")
	}
	e, err := NewDiskEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDiskEngineEndToEnd serves from the disk engine over the real wire
// protocol and checks the data survives a close and reopen.
func TestDiskEngineEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.db")
	eng := newDiskEngine(t, DiskEngineConfig{Path: path, Cap: 8, CacheNodes: 32})
	s, addr, shutdown := startServer(t, Config{Engine: eng})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := int64(0); i < n; i++ {
		if fresh, err := c.Put(i, uint64(i)*3); err != nil || !fresh {
			t.Fatalf("put %d: fresh=%v err=%v", i, fresh, err)
		}
	}
	if ok, err := c.Del(0); err != nil || !ok {
		t.Fatalf("del: ok=%v err=%v", ok, err)
	}
	if v, ok, err := c.Get(7); err != nil || !ok || v != 21 {
		t.Fatalf("get: v=%d ok=%v err=%v", v, ok, err)
	}
	if s.shards[0].tree != nil {
		t.Fatal("disk-engine server still exposes an in-memory tree")
	}
	c.Close()
	shutdown()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	re := newDiskEngine(t, DiskEngineConfig{Path: path, Cap: 8, CacheNodes: 32})
	defer re.Close()
	if re.Len() != n-1 {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), n-1)
	}
	for i := int64(1); i < n; i++ {
		v, ok, err := re.Get(i)
		if err != nil || !ok || v != uint64(i)*3 {
			t.Fatalf("reopened key %d = %d,%v,%v", i, v, ok, err)
		}
	}
}

// TestCommitFailureNeverAcks is the serving-layer fsyncgate regression:
// when a group's commit fsync fails, every mutation of every batch in the
// group is answered StatusUnavail — never OK — the engine stays poisoned
// for all later requests, and /healthz flips to 503. The failing group is
// built to be three batches from two connections: they queue up behind a
// committer held in the fsync of an earlier put, which succeeds.
func TestCommitFailureNeverAcks(t *testing.T) {
	// Probe run: how many fsyncs does opening the engine cost? The next
	// sync after that is the first put's commit, the one after it the
	// group's.
	probe := pagestore.NewFailFS(nil, pagestore.FailPlan{})
	pe := newDiskEngine(t, DiskEngineConfig{Cap: 8, CacheNodes: 32, FS: probe})
	openSyncs := probe.Syncs()
	pe.Close()

	fs := newGatedFS(pagestore.FailPlan{FailSyncAt: openSyncs + 2})
	eng := newDiskEngine(t, DiskEngineConfig{Cap: 8, CacheNodes: 32, FS: fs})
	s, addr, shutdown := startServer(t, Config{Engine: eng})
	defer shutdown()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	release := fs.hold()
	sh := s.shards[0]
	mustBurst(t, c, 1000, 1)
	<-fs.entered // the committer is in the first put's fsync
	for i, bc := range []*Client{c, c2, c} {
		mustBurst(t, bc, int64(i)*10, 4)
		waitFor(t, "the batch on the commit queue", func() bool { return len(sh.commitq) == i+1 })
	}
	release()
	if resp, err := c.Recv(); err != nil || resp.Status != StatusOK {
		t.Fatalf("put whose fsync succeeded: %+v err=%v, want StatusOK", resp, err)
	}
	for i, bc := range []*Client{c, c2, c} {
		for j := 0; j < 4; j++ {
			resp, err := bc.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != StatusUnavail {
				t.Fatalf("batch %d put %d, in the group whose fsync failed, answered status %d, want StatusUnavail", i, j, resp.Status)
			}
		}
	}
	if got := sh.ctr[cCommitFails].Load(); got != 3 {
		t.Fatalf("commit_fails = %d, want 3: one per batch of the failed group", got)
	}
	if groups, batches := sh.ctr[cCommitGroups].Load(), sh.ctr[cCommitBatches].Load(); groups != 2 || batches != 4 {
		t.Fatalf("%d batches in %d groups, want 4 in 2", batches, groups)
	}
	// The write must not have been acknowledged anywhere: the engine is
	// poisoned, so every later request is StatusUnavail too.
	for _, req := range []Request{
		{Op: OpPut, Key: 2, Val: 20},
		{Op: OpGet, Key: 1},
		{Op: OpDel, Key: 1},
	} {
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusUnavail {
			t.Fatalf("op %d after poison answered status %d, want StatusUnavail", req.Op, resp.Status)
		}
	}
	// Health and metrics report the poisoning.
	h := httptest.NewServer(s.Handler())
	defer h.Close()
	hr, err := http.Get(h.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d, want 503; body: %s", hr.StatusCode, body)
	}
	if !strings.HasPrefix(string(body), "poisoned") {
		t.Fatalf("healthz body = %q, want poisoned", body)
	}
	mr, err := http.Get(h.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(mbody), "kind=disk poisoned=true") {
		t.Fatalf("metrics missing poisoned engine line:\n%s", mbody)
	}
}

// TestDiskEngineCheckpointing drives enough committed mutations through
// the engine to cross the checkpoint threshold repeatedly and checks the
// lag stays bounded.
func TestDiskEngineCheckpointing(t *testing.T) {
	eng := newDiskEngine(t, DiskEngineConfig{Cap: 8, CacheNodes: 32, CheckpointOps: 100})
	defer eng.Close()
	for i := int64(0); i < 1000; i++ {
		if _, err := eng.Put(i, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := eng.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Checkpoints < 5 {
		t.Fatalf("only %d checkpoints over 1000 mutations at threshold 100", st.Checkpoints)
	}
	if st.CheckpointLag >= 200 {
		t.Fatalf("checkpoint lag %d never reset", st.CheckpointLag)
	}
	// Each commit here is one oplog fsync, and a checkpoint's trim may
	// add one; the last checkpoint's write-back and fsync were timed.
	if n := eng.Journal().Fsyncs().N(); n < 1000 || n > 1000+st.Checkpoints {
		t.Fatalf("%d oplog fsyncs timed over 1000 commits and %d checkpoints", n, st.Checkpoints)
	}
	if st.CkptWriteLastNs <= 0 || st.CkptSyncLastNs <= 0 {
		t.Fatalf("last checkpoint's write-back %d ns, fsync %d ns", st.CkptWriteLastNs, st.CkptSyncLastNs)
	}
}

// TestMemEngineDefault checks the no-Engine config still serves from the
// instrumented in-memory tree and reports it on /metrics.
func TestMemEngineDefault(t *testing.T) {
	s, addr, shutdown := startServer(t, Config{Prefill: 10})
	defer shutdown()
	if s.Engine().Kind() != "mem" || s.shards[0].tree == nil {
		t.Fatalf("default engine = %q, tree nil=%v", s.Engine().Kind(), s.shards[0].tree == nil)
	}
	if s.Engine().Len() != 10 {
		t.Fatalf("prefill through engine: Len = %d", s.Engine().Len())
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if fresh, err := c.Put(1, 1); err != nil || !fresh {
		t.Fatalf("put: fresh=%v err=%v", fresh, err)
	}
	h := httptest.NewServer(s.Handler())
	defer h.Close()
	mr, err := http.Get(h.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(body), "engine kind=mem poisoned=false") {
		t.Fatalf("metrics missing engine line:\n%s", body)
	}
}
