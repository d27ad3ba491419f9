package server

import (
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"btreeperf/internal/cbtree"
	"btreeperf/internal/core"
	"btreeperf/internal/metrics"
	"btreeperf/internal/qmodel"
)

// startServer runs a Server on an ephemeral loopback port, returning its
// address and a shutdown func that cancels and waits for a clean drain.
// testing.TB so the replication benchmarks can share it.
func startServer(t testing.TB, cfg Config) (*Server, string, func()) {
	t.Helper()
	s := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	return s, ln.Addr().String(), func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("Serve did not drain within 10s")
		}
	}
}

func TestServerBasicOps(t *testing.T) {
	for _, alg := range []cbtree.Algorithm{cbtree.LockCoupling, cbtree.Optimistic, cbtree.LinkType} {
		t.Run(alg.String(), func(t *testing.T) {
			_, addr, shutdown := startServer(t, Config{Algorithm: alg})
			defer shutdown()
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			if fresh, err := c.Put(1, 100); err != nil || !fresh {
				t.Fatalf("put: fresh=%v err=%v", fresh, err)
			}
			if fresh, err := c.Put(1, 200); err != nil || fresh {
				t.Fatalf("re-put: fresh=%v err=%v", fresh, err)
			}
			if v, ok, err := c.Get(1); err != nil || !ok || v != 200 {
				t.Fatalf("get: v=%d ok=%v err=%v", v, ok, err)
			}
			if _, ok, err := c.Get(2); err != nil || ok {
				t.Fatalf("get missing: ok=%v err=%v", ok, err)
			}
			if ok, err := c.Del(1); err != nil || !ok {
				t.Fatalf("del: ok=%v err=%v", ok, err)
			}
			if ok, err := c.Del(1); err != nil || ok {
				t.Fatalf("re-del: ok=%v err=%v", ok, err)
			}
			if resp, err := c.Do(Request{Op: OpPing}); err != nil || resp.Status != StatusOK {
				t.Fatalf("ping: %+v err=%v", resp, err)
			}
		})
	}
}

// TestServerPipelining floods one connection with pipelined puts and gets
// and checks responses come back in order.
func TestServerPipelining(t *testing.T) {
	s, addr, shutdown := startServer(t, Config{Algorithm: cbtree.LinkType})
	defer shutdown()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 5000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			c.Send(Request{Op: OpPut, Key: int64(i), Val: uint64(i) * 3})
		}
		c.Flush()
		for i := 0; i < n; i++ {
			c.Send(Request{Op: OpGet, Key: int64(i)})
		}
		c.Flush()
	}()
	for i := 0; i < n; i++ {
		resp, err := c.Recv()
		if err != nil {
			t.Fatalf("put resp %d: %v", i, err)
		}
		if resp.Status != StatusOK {
			t.Fatalf("put %d: status %d", i, resp.Status)
		}
	}
	for i := 0; i < n; i++ {
		resp, err := c.Recv()
		if err != nil {
			t.Fatalf("get resp %d: %v", i, err)
		}
		if !resp.HasVal || resp.Val != uint64(i)*3 {
			t.Fatalf("get %d: %+v (in-order pipelining broken)", i, resp)
		}
	}
	wg.Wait()
	if got := s.shards[0].tree.Len(); got != n {
		t.Fatalf("tree has %d keys, want %d", got, n)
	}
}

// TestServerConcurrentConnections hammers the server from several
// pipelined connections at once.
func TestServerConcurrentConnections(t *testing.T) {
	s, addr, shutdown := startServer(t, Config{Algorithm: cbtree.Optimistic})
	defer shutdown()

	const conns, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			recvDone := make(chan struct{})
			go func() {
				defer close(recvDone)
				for i := 0; i < per; i++ {
					if _, err := c.Recv(); err != nil {
						t.Errorf("conn %d recv %d: %v", w, i, err)
						return
					}
				}
			}()
			for i := 0; i < per; i++ {
				op := Request{Op: OpPut, Key: int64(w*per + i), Val: 1}
				if i%3 == 0 {
					op = Request{Op: OpGet, Key: int64(i)}
				}
				c.Send(op)
				if i%64 == 0 {
					c.Flush()
				}
			}
			c.Flush()
			<-recvDone
		}(w)
	}
	wg.Wait()
	if n := s.shards[0].opLat.Snapshot().N(); n != conns*per {
		t.Fatalf("served %d ops, want %d", n, conns*per)
	}
}

// TestGracefulDrain cancels the server while requests are in flight and
// verifies every already-sent request still gets its response.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Algorithm: cbtree.LinkType})
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
	defer c.Close()
	const n = 1000
	for i := 0; i < n; i++ {
		c.Send(Request{Op: OpPut, Key: int64(i), Val: uint64(i)})
	}
	c.Flush()
	cancel() // drain while the pipeline is likely still full
	got := 0
	for ; got < n; got++ {
		if _, err := c.Recv(); err != nil {
			break
		}
	}
	if got != n {
		t.Fatalf("received %d of %d responses across graceful drain", got, n)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	// New connections must be refused after shutdown.
	if c2, err := Dial(ln.Addr().String()); err == nil {
		c2.Close()
		t.Fatal("dial succeeded after shutdown")
	}
}

// untilHeard repeats a burst of traffic for three epoch periods. The lock
// telemetry is taken in epochs (metrics.EpochLength in every EpochPeriod,
// the gaps up to one and a half periods long): traffic that lasts that
// long has been heard in at least one.
func untilHeard(burst func()) {
	for t0 := time.Now(); time.Since(t0) < 3*metrics.EpochPeriod; {
		burst()
	}
}

// TestMetricsEndpoints drives traffic and checks /metrics and
// /debug/model report per-level telemetry and the model evaluation.
func TestMetricsEndpoints(t *testing.T) {
	s, addr, shutdown := startServer(t, Config{Algorithm: cbtree.LockCoupling, Capacity: 8, Prefill: 2000})
	defer shutdown()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	untilHeard(func() {
		for i := 0; i < 3000; i++ {
			c.Send(Request{Op: OpPut, Key: int64(i) * 17, Val: uint64(i)})
			c.Send(Request{Op: OpGet, Key: int64(i)})
		}
		c.Flush()
		for i := 0; i < 6000; i++ {
			if _, err := c.Recv(); err != nil {
				t.Fatal(err)
			}
		}
	})

	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	body := httpGet(t, hs.URL+"/metrics")
	for _, want := range []string{"level=1", "role=root", "rho_w=", "lambda_w=", "saturation"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	if !strings.Contains(body, "algorithm=lock-coupling") {
		t.Errorf("/metrics missing algorithm line:\n%s", body)
	}

	jbody := httpGet(t, hs.URL+"/metrics?format=json")
	if !strings.Contains(jbody, `"levels"`) || !strings.Contains(jbody, `"root_rho_w"`) {
		t.Errorf("/metrics json malformed:\n%s", jbody)
	}

	// Drive a second burst so the model window has traffic of its own.
	untilHeard(func() {
		for i := 0; i < 3000; i++ {
			c.Send(Request{Op: OpPut, Key: int64(i) * 31, Val: uint64(i)})
		}
		c.Flush()
		for i := 0; i < 3000; i++ {
			if _, err := c.Recv(); err != nil {
				t.Fatal(err)
			}
		}
	})
	mbody := httpGet(t, hs.URL+"/debug/model")
	for _, want := range []string{"qmodel evaluated", "ρ_w", "response time", "root rho_w"} {
		if !strings.Contains(mbody, want) {
			t.Errorf("/debug/model missing %q:\n%s", want, mbody)
		}
	}

	// One forecast, for the served algorithm under core's name, read off
	// the printed rows alone: recomputed from their λ and μ and the
	// heard rate in its header, it agrees to the rows' rounding.
	head := regexp.MustCompile(`predicted λ_\{ρ=\.5\} in ops/s: level (\d+) reaches .* scaled from the (\d+) ops/s heard`).FindStringSubmatch(mbody)
	lines := regexp.MustCompile(`(?m)^\s+(\S+)\s+λ_eff = (\S+)$`).FindAllStringSubmatch(mbody, -1)
	if head == nil || len(lines) != 1 || lines[0][1] != core.NLC.String() {
		t.Fatalf("/debug/model: want one forecast header and one λ_eff line for %s:\n%s", core.NLC, mbody)
	}
	num := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	var rows []qmodel.Input
	for _, r := range regexp.MustCompile(`(?m)^(\d+)\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s`).FindAllStringSubmatch(mbody, -1) {
		for len(rows) < int(num(r[1])) {
			rows = append(rows, qmodel.Input{})
		}
		rows[int(num(r[1]))-1] = qmodel.Input{LambdaR: num(r[2]), LambdaW: num(r[3]), MuR: num(r[4]), MuW: num(r[5])}
	}
	rate, level := core.AnalyzeMeasured(rows).Capacity(num(head[2]), SaturationRho)
	if printed := num(lines[0][2]); level != int(num(head[1])) || math.Abs(printed/rate-1) > 5e-3 {
		t.Errorf("printed λ_eff %v at level %s; the printed rows give %v at level %d:\n%s", printed, head[1], rate, level, mbody)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
