// Command btload is a load generator for btserved: n connections each
// keep up to -depth requests pipelined, drawing operations from the
// paper's search/insert/delete mix — optionally extended with a range-
// scan share (-qr, or a -scenario preset like scan-heavy) — via
// independent deterministic workload generators
// (workload.Generator.Split), and report throughput plus latency
// quantiles. A drawn scan requests one page of [k, k+scan-span) at a
// live key k, pipelined like any other op.
//
//	btload -addr 127.0.0.1:9400 -conns 4 -depth 32 -duration 5s
//	btload -addr 127.0.0.1:9400 -n 1000000 -qs .3 -qi .5 -qd .2
//	btload -addr 127.0.0.1:9400 -scenario scan-mixed -scan-limit 128
//	btload -addr 127.0.0.1:9400 -scenario read-heavy -zipf 1.1
//
// -zipf s skews key choice zipfian with exponent s (0 = uniform, the
// paper's regime): searches, deletes, and scans concentrate on a hot
// set of live keys and inserts on low keys, concentrating writer
// contention — the regime where olc's latch-free reads diverge most
// from link-type's queued R locks.
//
// By default the loop is closed: each connection sends as fast as its
// pipeline window allows, so offered load adapts to the server. With
// -rate λ the loop is open: arrivals form a Poisson process at λ ops/s
// total (exponential interarrival gaps split evenly across connections,
// matching the paper's arrival model), latencies are measured from each
// request's scheduled arrival time (so queueing delay from a lagging
// sender — coordinated omission — is charged to the server, not hidden),
// and the exit report prints the applied arrival rate next to the target
// so saturation is visible:
//
//	btload -addr 127.0.0.1:9400 -conns 4 -rate 200000 -duration 10s
//
// With -chaos, each connection is wrapped in the internal/faults
// injector (client-side chaos: latency, stalls, resets, truncated
// writes, dropped dials) and the loop turns tolerant: connection
// errors are absorbed by redialing, in-flight requests lost to a dead
// connection are counted as errors, and Busy/Overload responses from a
// shedding server are counted separately. The exit report then
// includes error and shed counts and rates:
//
//	btload -addr 127.0.0.1:9400 -chaos 'preset=0.002,pdrop=0.05,seed=3'
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"btreeperf/internal/faults"
	"btreeperf/internal/metrics"
	"btreeperf/internal/server"
	"btreeperf/internal/workload"
	"btreeperf/internal/xrand"
)

// counters aggregates load statistics across connections; the answered
// requests are the count of the slots' merged latency histograms.
type counters struct {
	sent     atomic.Int64
	hits     atomic.Int64
	searches atomic.Int64
	inserts  atomic.Int64
	deletes  atomic.Int64
	scans    atomic.Int64 // scan pages requested (one page per drawn scan op)
	scanKeys atomic.Int64 // entries returned on those pages
	shed     atomic.Int64 // Busy/Overload responses (server self-defense)
	errs     atomic.Int64 // requests lost to connection failures
	redials  atomic.Int64 // reconnects in tolerant (-chaos) mode
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:9400", "btserved address")
		conns     = flag.Int("conns", 4, "concurrent connections")
		depth     = flag.Int("depth", 32, "pipelined requests per connection (closed loop)")
		duration  = flag.Duration("duration", 5*time.Second, "run length (ignored when -n > 0)")
		nOps      = flag.Int("n", 0, "total operations (0 = run for -duration)")
		rate      = flag.Float64("rate", 0, "open-loop Poisson arrival rate, total ops/s across connections (0 = closed loop)")
		qs        = flag.Float64("qs", workload.PaperMix.QS, "search fraction")
		qi        = flag.Float64("qi", workload.PaperMix.QI, "insert fraction")
		qd        = flag.Float64("qd", workload.PaperMix.QD, "delete fraction")
		qr        = flag.Float64("qr", 0, "range-scan fraction (scans draw one page of [k, k+scan-span) at a live key k)")
		scenario  = flag.String("scenario", "", "named mix preset (paper, point, read-heavy, insert-heavy, scan-heavy, scan-mixed); overrides -qs/-qi/-qd/-qr")
		scanSpan  = flag.Int64("scan-span", 0, "scan range width in key space (0 = keyspace/512)")
		scanLimit = flag.Int("scan-limit", 0, "scan page entry cap (0 = server default)")
		keySpace  = flag.Int64("keyspace", 1<<31, "insert keys drawn uniformly from [0, keyspace)")
		zipf      = flag.Float64("zipf", 0, "zipfian key-skew exponent s: accesses concentrate on a hot key set (0 = uniform)")
		seed      = flag.Uint64("seed", 1, "workload seed (fixed seed = reproducible op streams)")
		chaosSpec = flag.String("chaos", "", "client-side fault spec (tolerant mode), e.g. 'preset=0.002,pdrop=0.05,seed=3'")
		opTimeout = flag.Duration("op-timeout", 0, "per-op deadline on each connection (0 = none; -chaos and -audit default to 5s)")

		replicas = flag.String("replicas", "", "comma-separated follower addresses: reads (gets as bounded-staleness getseq, scans) go to followers, mutations to -addr (the leader); see replicas.go")

		audit       = flag.String("audit", "", "acked-durability audit mode: record every acknowledged put to this file (see audit.go)")
		auditVerify = flag.String("audit-verify", "", "verify a recorded audit file against a recovered server; non-zero exit on any lost acked write")
		keystart    = flag.Int64("keystart", 0, "first key of the audit key range (give each kill cycle a disjoint range)")
	)
	flag.Parse()
	// A value that would measure nothing, or that would be silently
	// rewritten, is refused with exit 2 and one line saying why.
	refuse := func(bad bool, format string, v any) {
		if bad {
			fmt.Fprintf(os.Stderr, "btload: "+format+"\n", v)
			os.Exit(2)
		}
	}
	refuse(*conns < 1, "-conns %d (want >= 1)", *conns)
	refuse(*depth < 1, "-depth %d (want >= 1)", *depth)
	refuse(*rate < 0, "-rate %v (want >= 0; 0 = closed loop)", *rate)
	refuse(*zipf < 0, "-zipf %v (want >= 0; 0 = uniform)", *zipf)
	refuse(*nOps < 0, "-n %d (want >= 0; 0 = run for -duration)", *nOps)
	refuse(*nOps == 0 && *duration <= 0, "-duration %v with -n 0 (want > 0: the run would measure nothing)", *duration)
	refuse(*scanSpan < 0, "-scan-span %d (want >= 0; 0 = keyspace/512)", *scanSpan)
	refuse(*scanLimit < 0, "-scan-limit %d (want >= 0; 0 = server default)", *scanLimit)
	refuse(*opTimeout < 0, "-op-timeout %v (want >= 0; 0 = none)", *opTimeout)
	perConnRate := *rate / float64(*conns)

	var inj *faults.Injector
	if *chaosSpec != "" {
		fc, err := faults.ParseSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "btload:", err)
			os.Exit(2)
		}
		inj = faults.New(fc)
		if *opTimeout == 0 {
			*opTimeout = 5 * time.Second // a stalled chaos conn must not hang the run
		}
	}

	mix := workload.Mix{QS: *qs, QI: *qi, QD: *qd, QR: *qr}
	if *scenario != "" {
		m, err := workload.Scenario(*scenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, "btload:", err)
			os.Exit(2)
		}
		mix = m
		*qs, *qi, *qd, *qr = m.QS, m.QI, m.QD, m.QR
	}
	if *scanSpan == 0 {
		*scanSpan = max(*keySpace/512, 1)
	}
	master, err := workload.NewGenerator(mix, workload.NewKeyPool(), *keySpace, xrand.New(*seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "btload:", err)
		os.Exit(2)
	}
	master.SetSkew(*zipf)
	gens := master.Split(*conns)

	var (
		stop atomic.Bool
		ctr  counters
	)
	quota := make([]int, *conns)
	if *nOps > 0 {
		per, extra := *nOps / *conns, *nOps%*conns
		for i := range quota {
			quota[i] = per
			if i < extra {
				quota[i]++
			}
		}
	}

	dialTo := func(a string) (*server.Client, error) {
		conn, err := net.DialTimeout("tcp", a, 5*time.Second)
		if err != nil {
			return nil, err
		}
		if inj != nil {
			if conn = inj.Conn(conn); conn == nil {
				return nil, fmt.Errorf("chaos: connection dropped at dial")
			}
		}
		c := server.NewClient(conn)
		c.SetOpTimeout(*opTimeout)
		return c, nil
	}
	dial := func() (*server.Client, error) { return dialTo(*addr) }

	rt := setupReplicas(dialTo, *addr, *replicas, *chaosSpec, *audit, *auditVerify)

	if *audit != "" || *auditVerify != "" {
		if *opTimeout == 0 {
			// A Recv against a kill -9ed server whose conn never RSTs must
			// not hang the audit run.
			*opTimeout = 5 * time.Second
		}
		if *audit != "" {
			os.Exit(runAudit(dial, *audit, *conns, *depth, *keystart, *duration))
		}
		os.Exit(runVerify(dial, *auditVerify, *conns, *depth))
	}

	start := time.Now()
	if *nOps <= 0 {
		time.AfterFunc(*duration, func() { stop.Store(true) })
	}

	var wg sync.WaitGroup
	errs := make(chan error, *conns)
	slots := make([]*slot, *conns)
	for i := range slots {
		connSeed := *seed ^ uint64(i)*0x9e3779b97f4a7c15
		s := &slot{
			dial: dialTo, addr: *addr, rt: rt, gen: gens[i],
			depth: *depth, quota: quota[i], quotaMode: *nOps > 0, tolerant: inj != nil,
			rate: perConnRate, pace: xrand.New(connSeed),
			scanSpan: *scanSpan, scanLimit: *scanLimit, stop: &stop, ctr: &ctr,
		}
		if rt != nil {
			s.target = i % len(rt.addrs)
		}
		slots[i] = s
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.run(); err != nil {
				errs <- fmt.Errorf("conn %d: %w", i, err)
				stop.Store(true)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		fmt.Fprintln(os.Stderr, "btload:", err)
		os.Exit(1)
	default:
	}

	var lat metrics.HistSnapshot
	for _, s := range slots {
		lat = lat.Add(s.lat.Snapshot())
	}
	n := lat.N()
	loop := "closed loop"
	if *rate > 0 {
		loop = fmt.Sprintf("open loop λ=%.0f/s", *rate)
	}
	skewNote := ""
	if *zipf > 0 {
		skewNote = fmt.Sprintf(", zipf s=%.2f", *zipf)
	}
	fmt.Printf("btload: %d conns × depth %d against %s (%s), mix s/i/d/r = %.2f/%.2f/%.2f/%.2f, seed %d%s\n",
		*conns, *depth, *addr, loop, *qs, *qi, *qd, *qr, *seed, skewNote)
	fmt.Printf("%d ops in %v: %.0f ops/s\n",
		n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())
	if *rate > 0 {
		applied := float64(ctr.sent.Load()) / elapsed.Seconds()
		fmt.Printf("arrivals: target %.0f/s, applied %.0f/s (%.1f%%)\n",
			*rate, applied, 100*applied/(*rate))
	}
	if n > 0 {
		q := func(p float64) float64 { return float64(lat.Quantile(p)) / 1e3 }
		fmt.Printf("latency µs: mean %.1f p50 %.1f p95 %.1f p99 %.1f max %.1f\n",
			lat.Mean()/1e3, q(0.50), q(0.95), q(0.99), q(1))
		sr := ctr.searches.Load()
		hitPct := 0.0
		if sr > 0 {
			hitPct = 100 * float64(ctr.hits.Load()) / float64(sr)
		}
		fmt.Printf("ops: %d search (%.0f%% hit), %d insert, %d delete\n",
			sr, hitPct, ctr.inserts.Load(), ctr.deletes.Load())
		if sc := ctr.scans.Load(); sc > 0 {
			sk := ctr.scanKeys.Load()
			fmt.Printf("scans: %d pages (span %d, limit %d), %d keys returned, %.1f keys/page, %.0f keys/s\n",
				sc, *scanSpan, *scanLimit, sk, float64(sk)/float64(sc), float64(sk)/elapsed.Seconds())
		}
	}
	if rt != nil {
		rt.report(elapsed)
	}
	if shed := ctr.shed.Load(); shed > 0 || inj != nil {
		sentN := ctr.sent.Load()
		rate := func(c int64) float64 {
			if sentN == 0 {
				return 0
			}
			return 100 * float64(c) / float64(sentN)
		}
		fmt.Printf("shed: %d (%.2f%% of %d sent) — Busy/Overload from server self-defense\n",
			shed, rate(shed), sentN)
		if inj != nil {
			e := ctr.errs.Load()
			fmt.Printf("errors: %d (%.2f%% of sent), reconnects: %d\n", e, rate(e), ctr.redials.Load())
			fmt.Printf("chaos injected: %s\n", inj.Stats())
		}
	}
}

// slot is one connection slot of a load run: a generator, a pipelined
// connection for its requests and the latencies of their answers (one
// histogram, which both receivers of a replica-mode slot record into).
// In replica mode (rt != nil) the slot holds two connections: mutations
// go to the leader, reads to follower rt.addrs[target].
type slot struct {
	dial      func(addr string) (*server.Client, error)
	addr      string
	rt        *replTargets
	target    int
	gen       *workload.Generator
	depth     int
	quota     int // requests to send when quotaMode, else until stop
	quotaMode bool
	tolerant  bool    // -chaos: absorb connection errors by redialing
	rate      float64 // open-loop arrivals per second on this slot (0 = closed loop)
	pace      *xrand.Source
	scanSpan  int64
	scanLimit int
	stop      *atomic.Bool
	ctr       *counters
	lat       metrics.Hist
}

// run drives the slot until stop or quota. In tolerant mode a connection
// failure is absorbed: in-flight requests are counted as errors, the
// connection is redialed with backoff, and the loop continues.
func (s *slot) run() error {
	sent := 0
	defer func() { s.ctr.sent.Add(int64(sent)) }()
	for !s.stop.Load() && (!s.quotaMode || sent < s.quota) {
		did, lost, err := s.dialAndPump(s.quota - sent)
		sent += did
		// Requests that were on the wire when a conn died never got
		// answers: that is the error budget being spent.
		s.ctr.errs.Add(int64(lost))
		if err != nil {
			if !s.tolerant {
				return fmt.Errorf("%w (%d requests in flight lost)", err, lost)
			}
			s.ctr.redials.Add(1)
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

func (s *slot) dialAndPump(quota int) (did, lost int, err error) {
	w, err := s.dial(s.addr)
	if err != nil {
		return 0, 0, err
	}
	defer w.Close()
	r := w
	if s.rt != nil {
		if r, err = s.dial(s.rt.addrs[s.target]); err != nil {
			return 0, 0, fmt.Errorf("replica %s: %w", s.rt.addrs[s.target], err)
		}
		defer r.Close()
	}
	return s.pump(w, r, quota)
}

// pump sends generated requests down w (mutations) and r (reads; the
// same connection outside replica mode) until stop, quota, or a
// connection error. It returns the number of requests sent and how many
// of those were still unanswered when it stopped.
//
// With rate > 0 the loop is open: sends are paced to a Poisson schedule
// at that rate, the schedule keeps advancing even when the sender lags
// (arrivals are never silently dropped or deferred), and each request is
// stamped with its scheduled arrival time so measured latency includes
// any delay between scheduled and actual send.
func (s *slot) pump(w, r *server.Client, quota int) (did, lost int, err error) {
	wp := newPipe(w, s.depth, s.onResp)
	rp := wp
	if r != w {
		rp = newPipe(r, s.depth, s.onResp)
	}
	next := time.Now().UnixNano() // open-loop arrival schedule cursor
	for !s.stop.Load() && (!s.quotaMode || did < quota) {
		op, key := s.gen.Next()
		var req server.Request
		p := wp
		switch op {
		case workload.Search:
			req, p = server.Request{Op: server.OpGet, Key: key}, rp
			if s.rt != nil {
				req.Op, req.MinSeq = server.OpGetSeq, s.rt.floors.For(key)
			}
			s.ctr.searches.Add(1)
		case workload.Scan:
			hi := key + s.scanSpan
			if hi < key {
				hi = int64(^uint64(0) >> 1) // clamp at +inf on overflow
			}
			req, p = server.Request{Op: server.OpScan, Key: key, Hi: hi, Limit: s.scanLimit}, rp
			s.ctr.scans.Add(1)
		case workload.Insert:
			req = server.Request{Op: server.OpPut, Key: key, Val: uint64(key)}
			s.ctr.inserts.Add(1)
		default:
			req = server.Request{Op: server.OpDel, Key: key}
			s.ctr.deletes.Add(1)
		}
		st := stamp{t: time.Now().UnixNano(), op: op, key: key}
		if s.rate > 0 {
			next += int64(s.pace.ExpRate(s.rate) * 1e9)
			if d := next - st.t; d > 0 {
				// Push buffered requests to the wire before parking: a
				// paced gap must not leave arrivals sitting in the client
				// buffer waiting for the every-64 flush.
				if wp.flush() != nil || rp.flush() != nil {
					break
				}
				time.Sleep(time.Duration(d))
			}
			st.t = next // latency from scheduled, not actual, send
		}
		if p.send(req, st) != nil {
			break
		}
		did++
	}
	lost, err = wp.finish()
	if rp != wp {
		rlost, rerr := rp.finish()
		// A follower connection that died with reads in flight is that
		// target's failure, whatever the leader connection did.
		s.rt.errsT[s.target].Add(int64(rlost))
		lost += rlost
		if err == nil && rerr != nil {
			err = fmt.Errorf("replica %s: %w", s.rt.addrs[s.target], rerr)
		}
	}
	return did, lost, err
}

// onResp books one answered request; it runs on a pipe's receiver.
func (s *slot) onResp(st stamp, resp server.Response) {
	s.lat.Observe(time.Now().UnixNano() - st.t)
	switch resp.Status {
	case server.StatusBusy, server.StatusOverload:
		s.ctr.shed.Add(1)
	case server.StatusLagging:
		// The follower refused rather than serve state older than our
		// own acked writes. Counted, not retried: the refusal rate IS
		// the measurement.
		if s.rt != nil {
			s.rt.lagging[s.target].Add(1)
		}
	case server.StatusOK, server.StatusMiss:
		switch {
		case st.op == workload.Search:
			if resp.Status == server.StatusOK {
				s.ctr.hits.Add(1)
			}
			if s.rt != nil {
				s.rt.gets[s.target].Add(1)
			}
		case st.op == workload.Scan:
			s.ctr.scanKeys.Add(int64(len(resp.Entries)))
			if s.rt != nil {
				s.rt.scans[s.target].Add(1)
			}
		case s.rt != nil && resp.HasVal:
			// A replicated leader stamps each acked mutation with the
			// shard's durable seq: fold it into the shared read floor.
			s.rt.floors.Observe(st.key, int64(resp.Val))
		}
	default:
		if s.rt != nil && (st.op == workload.Search || st.op == workload.Scan) {
			s.rt.errsT[s.target].Add(1)
		}
	}
}
