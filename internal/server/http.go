package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"btreeperf/internal/core"
	"btreeperf/internal/metrics"
	"btreeperf/internal/shape"
	"btreeperf/internal/table"
	"btreeperf/internal/workload"
)

// SaturationRho is the paper's §6 saturation threshold: the rules of
// thumb define the effective maximum arrival rate λ_{ρ=.5} as the load at
// which the root's writer utilization ρ_w reaches one half. A measured or
// model root ρ_w at or past this value means the tree is at its effective
// maximum throughput for the chosen algorithm and node size. Sharding
// multiplies the ceiling, not the threshold: each shard's root saturates
// independently at this same value.
const SaturationRho = 0.5

// windowState differences one shard's probe snapshots between scrapes so
// each endpoint reports rates over the interval since its previous scrape
// (the first scrape covers the time since the server started).
type windowState struct {
	mu           sync.Mutex
	prev         metrics.Snapshot
	prevOps      int64
	prevNs       int64
	prevHeardOps int64
	prevHeardNs  int64
	prevHist     metrics.HistSnapshot
}

// window is one evaluated scrape interval. The operation counters are
// exhaustive, so their rates are over Dt; the lock telemetry is taken only
// while the shard's probe listens, so Rates are over Measured, and a
// window with Measured == 0 has no lock sample at all.
type window struct {
	Dt        float64 // seconds
	Measured  float64 // seconds of Dt the probe listened
	Rates     []metrics.LevelRates
	OpRate    float64 // operations per second
	Ops       int64   // operations in the window
	ObsMeanNs float64 // observed mean per-op tree service time
	OpHist    metrics.HistSnapshot

	// The operations served during Measured, to set the model against:
	// inside an epoch the locks are timed, which a closed loop at
	// saturation feels, so the rates and service times the telemetry was
	// taken at are these, not the window's.
	HeardRate   float64 // operations per measured second
	HeardMeanNs float64 // their mean per-op tree service time
}

// advance captures a new snapshot of the shard and returns the window
// since the last.
func (w *windowState) advance(sh *shard) window {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.prev.At.IsZero() {
		w.prev = metrics.Snapshot{At: sh.srv.start}
	}
	// A shard whose engine has no instrumented locks has no probe: its
	// windows carry the operation counters and never a lock sample.
	cur := metrics.Snapshot{At: time.Now()}
	if sh.probe != nil {
		cur = sh.probe.Snapshot()
	}
	ops := sh.opCount.Load()
	opNs := sh.opNsSum.Load()
	hist := sh.opLat.Snapshot()

	out := window{
		Dt:       cur.At.Sub(w.prev.At).Seconds(),
		Measured: (cur.Listened - w.prev.Listened).Seconds(),
		Rates:    metrics.Rates(w.prev, cur),
		Ops:      ops - w.prevOps,
		OpHist:   hist.Sub(w.prevHist),
	}
	if out.Dt > 0 {
		out.OpRate = float64(out.Ops) / out.Dt
	}
	if out.Ops > 0 {
		out.ObsMeanNs = float64(opNs-w.prevNs) / float64(out.Ops)
	}
	heardOps, heardNs := sh.heardOps.Load(), sh.heardNs.Load()
	if n := heardOps - w.prevHeardOps; n > 0 && out.Measured > 0 {
		out.HeardRate = float64(n) / out.Measured
		out.HeardMeanNs = float64(heardNs-w.prevHeardNs) / float64(n)
	}
	w.prevHeardOps, w.prevHeardNs = heardOps, heardNs
	w.prev = cur
	w.prevOps = ops
	w.prevNs = opNs
	w.prevHist = hist
	return out
}

// rootRho returns the measured and model ρ_w at the root level, and
// whether either crosses the saturation threshold.
func rootRho(points []metrics.ModelPoint, height int) (measured, model float64, saturated bool) {
	for _, p := range points {
		if p.Level != height {
			continue
		}
		measured = p.RhoW
		if p.Evaluated {
			model = p.Sol.RhoW
		}
	}
	saturated = measured >= SaturationRho || model >= SaturationRho
	return measured, model, saturated
}

// shardScrape is one shard's fully evaluated scrape: its window, its
// model points, and its engine stats, captured together so the per-shard
// and merged views of one HTTP response agree with each other.
type shardScrape struct {
	sh        *shard
	win       window
	points    []metrics.ModelPoint
	height    int
	es        EngineStats
	poisoned  bool
	rhoMeas   float64
	rhoModel  float64
	saturated bool
}

// rhoText prints a root ρ_w taken over measured seconds of a window, or
// n/a when no probe listened in it: there is no utilization to report,
// which is not the same as a utilization of zero.
func rhoText(rho, measured float64) string {
	if measured <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.4f", rho)
}

// scrape advances the selected window of every shard and evaluates the
// model at each shard's measured parameters.
func (s *Server) scrape(winOf func(*shard) *windowState) []shardScrape {
	out := make([]shardScrape, len(s.shards))
	for i, sh := range s.shards {
		sc := shardScrape{
			sh:       sh,
			win:      winOf(sh).advance(sh),
			height:   sh.eng.Height(),
			es:       sh.eng.Stats(),
			poisoned: sh.eng.Poisoned() != nil,
		}
		sc.points = metrics.EvaluateAll(sc.win.Rates)
		sc.rhoMeas, sc.rhoModel, sc.saturated = rootRho(sc.points, sc.height)
		out[i] = sc
	}
	return out
}

// Handler returns the HTTP mux serving /metrics, /debug/model, and
// /healthz.
func (s *Server) Handler() http.Handler { return s.handler(false) }

// HandlerWithProfiling is Handler plus net/http/pprof mounted under
// /debug/pprof/, exposing the CPU, heap, goroutine, mutex, and block
// profiles on the telemetry listener. Mutex and block profiles are empty
// unless the process also sets runtime.SetMutexProfileFraction and
// runtime.SetBlockProfileRate (btserved's -pprof-mutex-frac and
// -pprof-block-rate flags).
func (s *Server) HandlerWithProfiling() http.Handler { return s.handler(true) }

func (s *Server) handler(profiled bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.guarded(s.handleMetrics))
	mux.HandleFunc("/debug/model", s.guarded(s.handleModel))
	mux.HandleFunc("/healthz", s.guarded(s.handleHealthz))
	mux.HandleFunc("/promote", s.guarded(s.handlePromote))
	if profiled {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// guarded wraps a telemetry handler in the server's lifecycle lock: the
// scrape holds the read side for its full duration, so Server.Close (the
// write side) cannot close an engine out from under a handler mid-scrape,
// and scrapes arriving after Close answer 503 without touching any
// engine.
func (s *Server) guarded(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.lifeMu.RLock()
		defer s.lifeMu.RUnlock()
		if s.closed {
			http.Error(w, "server closed", http.StatusServiceUnavailable)
			return
		}
		h(w, r)
	}
}

// handleHealthz reports the server's health: "ok" and "degraded" answer
// 200; "overloaded" (any shard's governor shedding) and "poisoned" (any
// shard's storage engine fail-stopped after an I/O error) answer 503 so
// load balancers stop routing traffic. A poisoned engine never recovers
// in-process — the report stays 503 until the operator restarts the
// server, which re-runs recovery from the last durable state. One bad
// shard is enough to fail aggregate health: clients cannot steer keys
// away from it, so the node as a whole cannot honor its contract.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g := s.Governor()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var poisoned []int
	for i, sh := range s.shards {
		if sh.eng.Poisoned() != nil {
			poisoned = append(poisoned, i)
		}
	}
	if len(poisoned) > 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "poisoned")
		for _, i := range poisoned {
			sh := s.shards[i]
			perr := sh.eng.Poisoned()
			if len(s.shards) > 1 {
				fmt.Fprintf(w, "shard=%d engine=%s error=%q commit_fails=%d unavail=%d\n",
					i, sh.eng.Kind(), perr, sh.commitFails.Load(), sh.unavail.Load())
			} else {
				fmt.Fprintf(w, "engine=%s error=%q commit_fails=%d unavail=%d\n",
					sh.eng.Kind(), perr, sh.commitFails.Load(), sh.unavail.Load())
			}
		}
		return
	}
	if g.State == GovOverloaded {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintln(w, g.State)
	fmt.Fprintf(w, "root_rho_w=%.4f threshold=%.2f exit=%.2f shed_overload=%d shed_busy=%d conn_rejects=%d\n",
		g.RootRhoW, g.Rho, g.ExitRho, g.ShedOverload, g.ShedBusy, g.ConnRejects)
	if rs := s.replicationStats(); rs != nil {
		seqs := make([]int64, len(s.shards))
		var lag int64
		for i := range s.shards {
			seqs[i] = s.shardSeq(i)
		}
		if rs.Follower != nil {
			lag = rs.Follower.LagSeqs
		}
		fmt.Fprintf(w, "replication role=%s seqs=%v lag_seqs=%d\n", rs.Role, seqs, lag)
	} else if se, ok := s.shards[0].eng.(seqEngine); ok && se.Journal() != nil {
		// Unreplicated but journal-backed: still report the durable seqs —
		// the committed bound a future follower would resume from.
		seqs := make([]int64, len(s.shards))
		for i := range s.shards {
			seqs[i] = s.shardSeq(i)
		}
		fmt.Fprintf(w, "seqs durable=%v\n", seqs)
	}
	if len(s.shards) > 1 {
		for i, sh := range s.shards {
			gs := sh.gov.Status()
			fmt.Fprintf(w, "shard=%d state=%s rho_w=%.4f shed_overload=%d shed_busy=%d\n",
				i, gs.State, gs.RootRhoW, gs.ShedOverload, gs.ShedBusy)
		}
	}
}

// metricsJSON is the ?format=json shape of /metrics. On a multi-shard
// server the top-level fields are the merged view (counts summed, root
// ρ_w the max over shards, histograms merged) and ShardBlocks carries
// each shard's own block; a single-shard server reports its one shard at
// the top level, with no shard blocks, exactly as before sharding.
type metricsJSON struct {
	UptimeS   float64 `json:"uptime_s"`
	Algorithm string  `json:"algorithm"`
	Capacity  int     `json:"capacity"`
	Shards    int     `json:"shards"`
	Keys      int     `json:"keys"`
	Height    int     `json:"height"`
	Workers   int     `json:"workers"`
	Conns     int64   `json:"connections"`
	WindowS   float64 `json:"window_s"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Gets      int64   `json:"gets"`
	Puts      int64   `json:"puts"`
	Dels      int64   `json:"dels"`
	BadReqs   int64   `json:"bad_requests"`

	// MeasuredShare is the share of the window the lock probes listened
	// (summed over shards): what the per-level figures below were taken
	// over. At 0 the window has no lock sample and they are absent.
	MeasuredShare float64 `json:"measured_share"`

	// Query traffic: pages served (a scan of k pages counts k), entries
	// returned on those pages, and — when the server runs the secondary
	// index — lookup pages, lookup entries, and the index's current size.
	Scans      int64   `json:"scan_pages"`
	ScanKeys   int64   `json:"scan_keys"`
	Seeks      int64   `json:"seeks"`
	Lookups    int64   `json:"lookup_pages"`
	LookupKeys int64   `json:"lookup_keys"`
	Indexed    bool    `json:"indexed"`
	IndexKeys  int64   `json:"index_keys"`
	OpMeanUs   float64 `json:"op_mean_us"`
	OpP50Us    float64 `json:"op_p50_us"`
	OpP99Us    float64 `json:"op_p99_us"`
	Splits     int64   `json:"splits"`
	Restarts   int64   `json:"restarts"`
	Crossings  int64   `json:"crossings"`
	RootRhoW   float64 `json:"root_rho_w"`
	Saturated  bool    `json:"saturated"`

	// OLC latch-free read telemetry; zero under the locking algorithms.
	ReadRestarts  int64 `json:"read_restarts"`
	ReadFallbacks int64 `json:"read_fallbacks"`

	Engine        string `json:"engine"` // mem | disk
	Poisoned      bool   `json:"poisoned"`
	Recovered     int64  `json:"recovered_ops"`
	OplogAppended int64  `json:"oplog_appended"`
	OplogSynced   int64  `json:"oplog_synced"`
	OplogBytes    int64  `json:"oplog_bytes"`
	Fsyncs        int64  `json:"group_commit_fsyncs"`
	Checkpoints   int64  `json:"checkpoints"`
	CheckpointLag int64  `json:"checkpoint_lag"`
	CkptFails     int64  `json:"ckpt_fails"`
	CommitFails   int64  `json:"commit_fails"`
	Unavail       int64  `json:"unavail"`

	// Global sequence positions (summed over shards on a multi-shard
	// server; per-shard values are in the shard blocks and on /healthz),
	// oplog-segment retention held for lagging followers, and the stop-
	// the-world checkpoint pause (max over shards).
	SeqAppended     int64   `json:"seq_appended"`
	SeqDurable      int64   `json:"seq_durable"`
	SeqLowest       int64   `json:"seq_lowest"`
	RetainedSegs    int64   `json:"retained_segments"`
	RetainedBytes   int64   `json:"retained_bytes"`
	CkptPauseLastUs float64 `json:"ckpt_pause_last_us"`
	CkptPauseMaxUs  float64 `json:"ckpt_pause_max_us"`
	CkptChunksDone  int64   `json:"ckpt_chunks_done"`
	CkptChunksTotal int64   `json:"ckpt_chunks_total"`

	// Replication is present only on a leader or follower.
	Replication *replicationJSON `json:"replication,omitempty"`

	Governor      string  `json:"governor"` // ok | degraded | overloaded | disabled
	GovernorRhoW  float64 `json:"governor_rho_w"`
	GovernorRho   float64 `json:"governor_threshold"`
	GovernorExit  float64 `json:"governor_exit"`
	GovernorFlips int64   `json:"governor_transitions"`
	ShedOverload  int64   `json:"shed_overload"`
	ShedBusy      int64   `json:"shed_busy"`
	ConnRejects   int64   `json:"conn_rejects"`
	ReadTimeouts  int64   `json:"read_timeouts"`
	WriteTimeouts int64   `json:"write_timeouts"`

	Levels []levelMetricsJSON `json:"levels"`

	ShardBlocks []shardMetricsJSON `json:"shard_blocks,omitempty"`
}

// shardMetricsJSON is one shard's block on a multi-shard /metrics.
type shardMetricsJSON struct {
	Shard         int     `json:"shard"`
	Keys          int     `json:"keys"`
	Height        int     `json:"height"`
	WindowS       float64 `json:"window_s"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	Gets          int64   `json:"gets"`
	Puts          int64   `json:"puts"`
	Dels          int64   `json:"dels"`
	Scans         int64   `json:"scan_pages"`
	ScanKeys      int64   `json:"scan_keys"`
	Seeks         int64   `json:"seeks"`
	Lookups       int64   `json:"lookup_pages"`
	LookupKeys    int64   `json:"lookup_keys"`
	OpMeanUs      float64 `json:"op_mean_us"`
	OpP50Us       float64 `json:"op_p50_us"`
	OpP99Us       float64 `json:"op_p99_us"`
	Splits        int64   `json:"splits"`
	Restarts      int64   `json:"restarts"`
	Crossings     int64   `json:"crossings"`
	ReadRestarts  int64   `json:"read_restarts"`
	ReadFallbacks int64   `json:"read_fallbacks"`
	RootRhoW      float64 `json:"root_rho_w"`
	ModelRhoW     float64 `json:"model_rho_w"`
	Saturated     bool    `json:"saturated"`
	Poisoned      bool    `json:"poisoned"`
	CommitFails   int64   `json:"commit_fails"`
	Unavail       int64   `json:"unavail"`
	Governor      string  `json:"governor"`
	GovernorRhoW  float64 `json:"governor_rho_w"`
	ShedOverload  int64   `json:"shed_overload"`
	ShedBusy      int64   `json:"shed_busy"`

	// Seq is the shard's replication sequence: applied on a follower,
	// durable on a journal-backed leader, zero otherwise.
	Seq int64 `json:"seq"`

	Levels []levelMetricsJSON `json:"levels"`
}

// replicationJSON is the /metrics replication block: role-common
// refusal counters plus the active role's stream telemetry.
type replicationJSON struct {
	Role        string `json:"role"` // leader | follower
	Epoch       uint64 `json:"epoch"`
	Acks        int    `json:"acks"`         // configured semi-sync requirement
	AckTimeouts int64  `json:"ack_timeouts"` // batches that missed the barrier
	NotLeader   int64  `json:"not_leader"`   // mutations refused on a follower
	Lagging     int64  `json:"lagging"`      // getseqs refused past the bound

	// Leader side.
	OpsShipped   int64                 `json:"ops_shipped,omitempty"`
	BytesShipped int64                 `json:"bytes_shipped,omitempty"`
	AcksRecv     int64                 `json:"acks_received,omitempty"`
	Snapshots    int64                 `json:"snapshots,omitempty"`
	Evictions    int64                 `json:"evictions,omitempty"`
	Followers    []replicationFollower `json:"followers,omitempty"`

	// Follower side.
	Applied    []int64 `json:"applied,omitempty"` // per shard
	Heads      []int64 `json:"heads,omitempty"`   // leader durable head per shard
	LagSeqs    int64   `json:"lag_seqs,omitempty"`
	OpsApplied int64   `json:"ops_applied,omitempty"`
	Reconnects int64   `json:"reconnects,omitempty"`
	Connected  bool    `json:"connected,omitempty"`
}

// replicationFollower is one follower's position as the leader sees it.
type replicationFollower struct {
	ID        uint64  `json:"id"`
	Addr      string  `json:"addr"`
	Connected bool    `json:"connected"`
	Acked     []int64 `json:"acked"` // per shard
	LagSeqs   int64   `json:"lag_seqs"`
	LagBytes  int64   `json:"lag_bytes"`
}

// replJSON converts the active role's stats for /metrics.
func replJSON(rs *ReplicationStats) *replicationJSON {
	if rs == nil {
		return nil
	}
	out := &replicationJSON{
		Role:        rs.Role,
		Acks:        rs.Acks,
		AckTimeouts: rs.AckTimeouts,
		NotLeader:   rs.NotLeader,
		Lagging:     rs.Lagging,
	}
	if rs.Hub != nil {
		out.Epoch = rs.Hub.Epoch
		out.OpsShipped = rs.Hub.OpsShipped
		out.BytesShipped = rs.Hub.BytesShipped
		out.AcksRecv = rs.Hub.Acks
		out.Snapshots = rs.Hub.Snapshots
		out.Evictions = rs.Hub.Evictions
		for _, f := range rs.Hub.Followers {
			out.Followers = append(out.Followers, replicationFollower{
				ID:        f.ID,
				Addr:      f.Addr,
				Connected: f.Connected,
				Acked:     f.Acked,
				LagSeqs:   f.LagSeqs,
				LagBytes:  f.LagBytes,
			})
		}
	}
	if rs.Follower != nil {
		out.Epoch = rs.Follower.Epoch
		out.Applied = rs.Follower.Applied
		out.Heads = rs.Follower.Heads
		out.LagSeqs = rs.Follower.LagSeqs
		out.OpsApplied = rs.Follower.OpsApplied
		out.Snapshots = rs.Follower.Snapshots
		out.Reconnects = rs.Follower.Reconnects
		out.Connected = rs.Follower.Connected
	}
	return out
}

type levelMetricsJSON struct {
	Level     int     `json:"level"`
	Root      bool    `json:"root"`
	LambdaR   float64 `json:"lambda_r"`
	LambdaW   float64 `json:"lambda_w"`
	MuR       float64 `json:"mu_r"`
	MuW       float64 `json:"mu_w"`
	HoldRUs   float64 `json:"hold_r_us"`
	HoldWUs   float64 `json:"hold_w_us"`
	WaitRUs   float64 `json:"wait_r_us"`
	WaitWUs   float64 `json:"wait_w_us"`
	WaitWP99  float64 `json:"wait_w_p99_us"`
	RhoW      float64 `json:"rho_w"`
	ModelRhoW float64 `json:"model_rho_w"`
	Stable    bool    `json:"model_stable"`

	// OLC latch-free read telemetry for this level over the window.
	ReadRestarts  int64   `json:"read_restarts"`
	ReadFallbacks int64   `json:"read_fallbacks"`
	RestartRate   float64 `json:"restart_rate"`
	FallbackRate  float64 `json:"fallback_rate"`
}

func us(sec float64) float64 { return sec * 1e6 }

// levelJSON converts one shard's model points, marking the shard's root.
func levelJSON(points []metrics.ModelPoint, height int) []levelMetricsJSON {
	var out []levelMetricsJSON
	for _, p := range points {
		lj := levelMetricsJSON{
			Level:    p.Level,
			Root:     p.Level == height,
			LambdaR:  p.LambdaR,
			LambdaW:  p.LambdaW,
			MuR:      p.MuR,
			MuW:      p.MuW,
			HoldRUs:  us(p.MeanHoldR),
			HoldWUs:  us(p.MeanHoldW),
			WaitRUs:  us(p.MeanWaitR),
			WaitWUs:  us(p.MeanWaitW),
			WaitWP99: float64(p.WaitHistW.Quantile(0.99)) / 1e3,
			RhoW:     p.RhoW,

			ReadRestarts:  p.ReadRestarts,
			ReadFallbacks: p.ReadFallbacks,
			RestartRate:   p.RestartRate,
			FallbackRate:  p.FallbackRate,
		}
		if p.Evaluated {
			lj.ModelRhoW = p.Sol.RhoW
			lj.Stable = p.Sol.Stable
		}
		out = append(out, lj)
	}
	return out
}

// mergeLevels folds every shard's model points into one per-level view:
// arrival rates sum (total offered load at that depth across shards),
// service rates and holds are arrival-weighted means, and both measured
// and model ρ_w take the max over shards — the merged gauge answers "is
// any root at this depth saturated", which is what sharding makes the
// operative question. Stable is the conjunction over evaluated shards.
func mergeLevels(scrapes []shardScrape) []levelMetricsJSON {
	maxH := 0
	for _, sc := range scrapes {
		for _, p := range sc.points {
			if p.Level > maxH {
				maxH = p.Level
			}
		}
	}
	var out []levelMetricsJSON
	for lvl := 1; lvl <= maxH; lvl++ {
		m := levelMetricsJSON{Level: lvl, Stable: true}
		var wsum, muR, muW, holdR, holdW, waitR, waitW float64
		var hist metrics.HistSnapshot
		found, anyEval := false, false
		for _, sc := range scrapes {
			for _, p := range sc.points {
				if p.Level != lvl {
					continue
				}
				found = true
				wgt := p.LambdaR + p.LambdaW
				if wgt <= 0 {
					wgt = 1
				}
				wsum += wgt
				m.LambdaR += p.LambdaR
				m.LambdaW += p.LambdaW
				muR += wgt * p.MuR
				muW += wgt * p.MuW
				holdR += wgt * us(p.MeanHoldR)
				holdW += wgt * us(p.MeanHoldW)
				waitR += wgt * us(p.MeanWaitR)
				waitW += wgt * us(p.MeanWaitW)
				hist = hist.Add(p.WaitHistW)
				m.ReadRestarts += p.ReadRestarts
				m.ReadFallbacks += p.ReadFallbacks
				m.RestartRate += p.RestartRate
				m.FallbackRate += p.FallbackRate
				if p.RhoW > m.RhoW {
					m.RhoW = p.RhoW
				}
				m.Root = m.Root || p.Level == sc.height
				if p.Evaluated {
					anyEval = true
					if p.Sol.RhoW > m.ModelRhoW {
						m.ModelRhoW = p.Sol.RhoW
					}
					m.Stable = m.Stable && p.Sol.Stable
				}
			}
		}
		if !found {
			continue
		}
		if wsum > 0 {
			m.MuR = muR / wsum
			m.MuW = muW / wsum
			m.HoldRUs = holdR / wsum
			m.HoldWUs = holdW / wsum
			m.WaitRUs = waitR / wsum
			m.WaitWUs = waitW / wsum
		}
		m.WaitWP99 = float64(hist.Quantile(0.99)) / 1e3
		if !anyEval {
			m.Stable = false
		}
		out = append(out, m)
	}
	return out
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	scrapes := s.scrape(func(sh *shard) *windowState { return &sh.metricsWin })
	single := len(scrapes) == 1

	// Merged view: counts and rates sum across shards; height, window,
	// and root ρ_w take the max; the op histogram is the bucket-wise sum.
	var (
		keys, height                        int
		dt, opRate, opNsSum                 float64
		wallSum, measuredSum                float64
		ops, gets, puts, dels, opBad        int64
		scans, scanKeys, seeks              int64
		lookups, lookupKeys, indexKeys      int64
		splits, restarts, crossings         int64
		readRestarts, readFallbacks         int64
		recovered, appended, synced, oplogB int64
		fsyncs, checkpoints, ckptLag        int64
		ckptFails                           int64
		commitFails, unavail                int64
		seqAppended, seqDurable, seqLowest  int64
		retainedSegs, retainedBytes         int64
		pauseLastNs, pauseMaxNs             int64
		chunksDone, chunksTotal             int64
		rhoMeas, rhoModel                   float64
		saturated, poisoned                 bool
		hist                                metrics.HistSnapshot
	)
	for _, sc := range scrapes {
		keys += sc.sh.eng.Len()
		if sc.height > height {
			height = sc.height
		}
		if sc.win.Dt > dt {
			dt = sc.win.Dt
		}
		wallSum += sc.win.Dt
		measuredSum += sc.win.Measured
		opRate += sc.win.OpRate
		ops += sc.win.Ops
		opNsSum += sc.win.ObsMeanNs * float64(sc.win.Ops)
		hist = hist.Add(sc.win.OpHist)
		gets += sc.sh.gets.Load()
		puts += sc.sh.puts.Load()
		dels += sc.sh.dels.Load()
		opBad += sc.sh.opBad.Load()
		scans += sc.sh.scans.Load()
		scanKeys += sc.sh.scanKeys.Load()
		seeks += sc.sh.seeks.Load()
		lookups += sc.sh.lookups.Load()
		lookupKeys += sc.sh.lookupKeys.Load()
		if sc.sh.idx != nil {
			indexKeys += int64(sc.sh.idx.Len())
		}
		splits += sc.es.Splits
		restarts += sc.es.Restarts
		crossings += sc.es.Crossings
		readRestarts += sc.es.ReadRestarts
		readFallbacks += sc.es.ReadFallbacks
		recovered += sc.es.Recovered
		appended += sc.es.Appended
		synced += sc.es.Synced
		oplogB += sc.es.OplogBytes
		fsyncs += sc.es.Fsyncs
		checkpoints += sc.es.Checkpoints
		ckptLag += sc.es.CheckpointLag
		ckptFails += sc.es.CheckpointFails
		chunksDone += sc.es.CkptChunksDone
		chunksTotal += sc.es.CkptChunksTotal
		commitFails += sc.sh.commitFails.Load()
		unavail += sc.sh.unavail.Load()
		seqAppended += sc.es.SeqAppended
		seqDurable += sc.es.SeqDurable
		seqLowest += sc.es.SeqLowest
		retainedSegs += sc.es.RetainedSegs
		retainedBytes += sc.es.RetainedBytes
		if sc.es.CkptPauseLastNs > pauseLastNs {
			pauseLastNs = sc.es.CkptPauseLastNs
		}
		if sc.es.CkptPauseMaxNs > pauseMaxNs {
			pauseMaxNs = sc.es.CkptPauseMaxNs
		}
		if sc.rhoMeas > rhoMeas {
			rhoMeas = sc.rhoMeas
		}
		if sc.rhoModel > rhoModel {
			rhoModel = sc.rhoModel
		}
		saturated = saturated || sc.saturated
		poisoned = poisoned || sc.poisoned
	}
	meanNs := 0.0
	if ops > 0 {
		meanNs = opNsSum / float64(ops)
	}

	eng0 := s.shards[0].eng
	out := metricsJSON{
		UptimeS:    time.Since(s.start).Seconds(),
		Algorithm:  eng0.Algorithm(),
		Capacity:   eng0.Cap(),
		Shards:     len(s.shards),
		Keys:       keys,
		Height:     height,
		Workers:    s.cfg.Workers,
		Conns:      s.connsNow.Load(),
		WindowS:    dt,
		OpsPerSec:  opRate,
		Gets:       gets,
		Puts:       puts,
		Dels:       dels,
		BadReqs:    s.badReqs.Load() + opBad,
		Scans:      scans,
		ScanKeys:   scanKeys,
		Seeks:      seeks,
		Lookups:    lookups,
		LookupKeys: lookupKeys,
		Indexed:    s.shards[0].idx != nil,
		IndexKeys:  indexKeys,
		OpMeanUs:   meanNs / 1e3,
		OpP50Us:    float64(hist.Quantile(0.5)) / 1e3,
		OpP99Us:    float64(hist.Quantile(0.99)) / 1e3,
		Splits:     splits,
		Restarts:   restarts,
		Crossings:  crossings,
		RootRhoW:   math.Max(rhoMeas, rhoModel),
		Saturated:  saturated,

		ReadRestarts:  readRestarts,
		ReadFallbacks: readFallbacks,

		Engine:        eng0.Kind(),
		Poisoned:      poisoned,
		Recovered:     recovered,
		OplogAppended: appended,
		OplogSynced:   synced,
		OplogBytes:    oplogB,
		Fsyncs:        fsyncs,
		Checkpoints:   checkpoints,
		CheckpointLag: ckptLag,
		CkptFails:     ckptFails,
		CommitFails:   commitFails,
		Unavail:       unavail,

		SeqAppended:     seqAppended,
		SeqDurable:      seqDurable,
		SeqLowest:       seqLowest,
		RetainedSegs:    retainedSegs,
		RetainedBytes:   retainedBytes,
		CkptPauseLastUs: float64(pauseLastNs) / 1e3,
		CkptPauseMaxUs:  float64(pauseMaxNs) / 1e3,
		CkptChunksDone:  chunksDone,
		CkptChunksTotal: chunksTotal,

		Replication: replJSON(s.replicationStats()),
	}
	if wallSum > 0 {
		out.MeasuredShare = measuredSum / wallSum
	}
	gov := s.Governor()
	out.Governor = gov.State.String()
	if gov.Disabled {
		out.Governor = "disabled"
	}
	out.GovernorRhoW = gov.RootRhoW
	out.GovernorRho = gov.Rho
	out.GovernorExit = gov.ExitRho
	out.GovernorFlips = gov.Transitions
	out.ShedOverload = gov.ShedOverload
	out.ShedBusy = gov.ShedBusy
	out.ConnRejects = gov.ConnRejects
	out.ReadTimeouts = s.readTimeouts.Load()
	out.WriteTimeouts = s.writeTimeouts.Load()
	if single {
		out.Levels = levelJSON(scrapes[0].points, scrapes[0].height)
	} else {
		out.Levels = mergeLevels(scrapes)
		for i, sc := range scrapes {
			gs := sc.sh.gov.Status()
			govName := gs.State.String()
			if gs.Disabled {
				govName = "disabled"
			}
			out.ShardBlocks = append(out.ShardBlocks, shardMetricsJSON{
				Shard:         i,
				Keys:          sc.sh.eng.Len(),
				Height:        sc.height,
				WindowS:       sc.win.Dt,
				OpsPerSec:     sc.win.OpRate,
				Gets:          sc.sh.gets.Load(),
				Puts:          sc.sh.puts.Load(),
				Dels:          sc.sh.dels.Load(),
				Scans:         sc.sh.scans.Load(),
				ScanKeys:      sc.sh.scanKeys.Load(),
				Seeks:         sc.sh.seeks.Load(),
				Lookups:       sc.sh.lookups.Load(),
				LookupKeys:    sc.sh.lookupKeys.Load(),
				OpMeanUs:      sc.win.ObsMeanNs / 1e3,
				OpP50Us:       float64(sc.win.OpHist.Quantile(0.5)) / 1e3,
				OpP99Us:       float64(sc.win.OpHist.Quantile(0.99)) / 1e3,
				Splits:        sc.es.Splits,
				Restarts:      sc.es.Restarts,
				Crossings:     sc.es.Crossings,
				ReadRestarts:  sc.es.ReadRestarts,
				ReadFallbacks: sc.es.ReadFallbacks,
				RootRhoW:      sc.rhoMeas,
				ModelRhoW:     sc.rhoModel,
				Saturated:     sc.saturated,
				Poisoned:      sc.poisoned,
				CommitFails:   sc.sh.commitFails.Load(),
				Unavail:       sc.sh.unavail.Load(),
				Governor:      govName,
				GovernorRhoW:  gs.RootRhoW,
				ShedOverload:  gs.ShedOverload,
				ShedBusy:      gs.ShedBusy,
				Seq:           s.shardSeq(i),
				Levels:        levelJSON(sc.points, sc.height),
			})
		}
	}

	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
		return
	}

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if single {
		fmt.Fprintf(w, "btserved uptime_s=%.1f algorithm=%s cap=%d keys=%d height=%d workers=%d conns=%d\n",
			out.UptimeS, out.Algorithm, out.Capacity, out.Keys, out.Height, out.Workers, out.Conns)
	} else {
		fmt.Fprintf(w, "btserved uptime_s=%.1f algorithm=%s cap=%d keys=%d height=%d workers=%d conns=%d shards=%d\n",
			out.UptimeS, out.Algorithm, out.Capacity, out.Keys, out.Height, out.Workers, out.Conns, out.Shards)
	}
	fmt.Fprintf(w, "ops window_s=%.2f rate=%.0f gets=%d puts=%d dels=%d bad=%d measured_share=%.4f\n",
		out.WindowS, out.OpsPerSec, out.Gets, out.Puts, out.Dels, out.BadReqs, out.MeasuredShare)
	fmt.Fprintf(w, "query scan_pages=%d scan_keys=%d seeks=%d lookup_pages=%d lookup_keys=%d indexed=%v index_keys=%d\n",
		out.Scans, out.ScanKeys, out.Seeks, out.Lookups, out.LookupKeys, out.Indexed, out.IndexKeys)
	fmt.Fprintf(w, "op_latency_us mean=%.1f p50=%.1f p99=%.1f\n", out.OpMeanUs, out.OpP50Us, out.OpP99Us)
	fmt.Fprintf(w, "tree splits=%d restarts=%d crossings=%d read_restarts=%d read_fallbacks=%d\n",
		out.Splits, out.Restarts, out.Crossings, out.ReadRestarts, out.ReadFallbacks)
	fmt.Fprintf(w, "engine kind=%s poisoned=%v recovered=%d oplog_appended=%d oplog_synced=%d oplog_bytes=%d fsyncs=%d checkpoints=%d checkpoint_lag=%d ckpt_fails=%d commit_fails=%d unavail=%d\n",
		out.Engine, out.Poisoned, out.Recovered, out.OplogAppended, out.OplogSynced,
		out.OplogBytes, out.Fsyncs, out.Checkpoints, out.CheckpointLag, out.CkptFails,
		out.CommitFails, out.Unavail)
	fmt.Fprintf(w, "checkpoint pause_last_us=%.1f pause_max_us=%.1f chunks_done=%d chunks_total=%d behind=%d\n",
		out.CkptPauseLastUs, out.CkptPauseMaxUs, out.CkptChunksDone, out.CkptChunksTotal, out.CheckpointLag)
	fmt.Fprintf(w, "seqs appended=%d durable=%d lowest=%d retained_segments=%d retained_bytes=%d\n",
		out.SeqAppended, out.SeqDurable, out.SeqLowest, out.RetainedSegs, out.RetainedBytes)
	if rp := out.Replication; rp != nil {
		if rp.Role == "leader" {
			fmt.Fprintf(w, "replication role=leader epoch=%d acks=%d ack_timeouts=%d ops_shipped=%d bytes_shipped=%d acks_received=%d snapshots=%d evictions=%d followers=%d\n",
				rp.Epoch, rp.Acks, rp.AckTimeouts, rp.OpsShipped, rp.BytesShipped,
				rp.AcksRecv, rp.Snapshots, rp.Evictions, len(rp.Followers))
			for _, f := range rp.Followers {
				fmt.Fprintf(w, "follower id=%d addr=%s connected=%v acked=%v lag_seqs=%d lag_bytes=%d\n",
					f.ID, f.Addr, f.Connected, f.Acked, f.LagSeqs, f.LagBytes)
			}
		} else {
			fmt.Fprintf(w, "replication role=follower epoch=%d connected=%v applied=%v heads=%v lag_seqs=%d ops_applied=%d snapshots=%d reconnects=%d not_leader=%d lagging=%d\n",
				rp.Epoch, rp.Connected, rp.Applied, rp.Heads, rp.LagSeqs,
				rp.OpsApplied, rp.Snapshots, rp.Reconnects, rp.NotLeader, rp.Lagging)
		}
	}
	if !single {
		// Per-shard ρ_w gauges: one line per shard with its own root
		// utilization, model prediction, governor, and shed counters.
		for i, b := range out.ShardBlocks {
			measured := scrapes[i].win.Measured
			fmt.Fprintf(w, "shard=%d keys=%d height=%d rate=%.0f root_rho_w=%s model_rho_w=%s saturated=%v governor=%s poisoned=%v shed_overload=%d shed_busy=%d commit_fails=%d unavail=%d seq=%d\n",
				b.Shard, b.Keys, b.Height, b.OpsPerSec, rhoText(b.RootRhoW, measured), rhoText(b.ModelRhoW, measured),
				b.Saturated, b.Governor, b.Poisoned, b.ShedOverload, b.ShedBusy,
				b.CommitFails, b.Unavail, b.Seq)
		}
	}
	for _, l := range out.Levels {
		role := "inner"
		if l.Root {
			role = "root"
		} else if l.Level == 1 {
			role = "leaf"
		}
		fmt.Fprintf(w, "level=%d role=%s lambda_r=%.0f lambda_w=%.0f mu_r=%.0f mu_w=%.0f hold_r_us=%.2f hold_w_us=%.2f wait_r_us=%.2f wait_w_us=%.2f wait_w_p99_us=%.1f rho_w=%.4f model_rho_w=%.4f stable=%v",
			l.Level, role, l.LambdaR, l.LambdaW, l.MuR, l.MuW,
			l.HoldRUs, l.HoldWUs, l.WaitRUs, l.WaitWUs, l.WaitWP99,
			l.RhoW, l.ModelRhoW, l.Stable)
		if out.ReadRestarts > 0 || out.ReadFallbacks > 0 {
			fmt.Fprintf(w, " read_restarts=%d read_fallbacks=%d restart_rate=%.1f fallback_rate=%.1f",
				l.ReadRestarts, l.ReadFallbacks, l.RestartRate, l.FallbackRate)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "governor state=%s rho_w=%.4f threshold=%.2f exit=%.2f transitions=%d shed_overload=%d shed_busy=%d conn_rejects=%d read_timeouts=%d write_timeouts=%d\n",
		out.Governor, out.GovernorRhoW, out.GovernorRho, out.GovernorExit,
		out.GovernorFlips, out.ShedOverload, out.ShedBusy, out.ConnRejects,
		out.ReadTimeouts, out.WriteTimeouts)
	fmt.Fprintf(w, "saturation root_rho_w=%s threshold=%.2f saturated=%v\n",
		rhoText(out.RootRhoW, measuredSum), SaturationRho, out.Saturated)
	if out.Saturated {
		fmt.Fprintf(w, "WARNING: root writer utilization rho_w >= %.2f — the tree is past the paper's effective maximum arrival rate (§6, rules of thumb 1–4)\n", SaturationRho)
	}
}

// handlePromote flips a follower into a leader (POST only). It answers
// 409 on a server that is not currently following — promotion of a
// leader or an unreplicated server is always an operator error — and
// 500 when the installed hook fails partway (the server may be left
// leaderless; the operator retries or restarts).
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	epoch, err := s.Promote()
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, ErrNotFollower) {
			code = http.StatusConflict
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "promoted epoch=%d\n", epoch)
}

// modelSection renders one shard's predicted-vs-measured table.
func modelSection(w http.ResponseWriter, sc shardScrape) {
	tb := table.New("per-level FCFS R/W queues (leaf=1 .. root)",
		"level", "λ_r/s", "λ_w/s", "μ_r/s", "μ_w/s",
		"ρ_w meas", "ρ_w model", "T_a µs", "W_w meas µs", "W_w pred µs", "stable")
	for _, p := range sc.points {
		row := []string{
			fmt.Sprintf("%d", p.Level),
			table.F(p.LambdaR), table.F(p.LambdaW),
			table.F(p.MuR), table.F(p.MuW),
			table.F(p.RhoW),
		}
		if p.Evaluated {
			row = append(row,
				table.F(p.Sol.RhoW),
				table.F(us(p.Sol.TA)),
				table.F(us(p.MeanWaitW)),
				table.F(us(p.PredWaitW)),
				fmt.Sprintf("%v", p.Sol.Stable))
		} else {
			row = append(row, "-", "-", table.F(us(p.MeanWaitW)), "-", "-")
		}
		tb.AddRow(row...)
	}
	tb.Render(w)

	if sc.win.Measured <= 0 {
		// The probe did not listen in this window: the model has nothing
		// to be evaluated at.
		fmt.Fprintf(w, "\nresponse time: observed mean %.1f µs, model predicted n/a (no lock sample in this window)\n",
			sc.win.ObsMeanNs/1e3)
	} else {
		// Both sides over the measured time: the prediction comes from
		// telemetry taken there, so it is set against the operations
		// served there.
		predNs := metrics.PredictedResponse(sc.points, sc.win.HeardRate) * 1e9
		fmt.Fprintf(w, "\nresponse time over the %.4fs measured: observed mean %.1f µs, model predicted %.1f µs",
			sc.win.Measured, sc.win.HeardMeanNs/1e3, predNs/1e3)
		if sc.win.HeardMeanNs > 0 && predNs > 0 {
			ratio := predNs / sc.win.HeardMeanNs
			fmt.Fprintf(w, " (pred/obs = %.2f)", ratio)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "root rho_w: measured %s, model %s, threshold %.2f\n",
		rhoText(sc.rhoMeas, sc.win.Measured), rhoText(sc.rhoModel, sc.win.Measured), SaturationRho)
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	scrapes := s.scrape(func(sh *shard) *windowState { return &sh.modelWin })
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")

	if len(scrapes) == 1 {
		sc := scrapes[0]
		fmt.Fprintf(w, "qmodel evaluated at measured parameters (window %.2fs, locks measured for %.4fs of it, %d ops, %.0f ops/s, algorithm %s)\n\n",
			sc.win.Dt, sc.win.Measured, sc.win.Ops, sc.win.OpRate, sc.sh.eng.Algorithm())
		modelSection(w, sc)
		if sc.saturated {
			fmt.Fprintf(w, "WARNING: SATURATED — root writer utilization ρ_w >= %.2f, the paper's effective maximum arrival rate λ_{ρ=.5} (§6, rules of thumb 1–4). Raise node capacity (Optimistic/Link-type) or shard.\n", SaturationRho)
		} else {
			fmt.Fprintf(w, "root below the λ_{ρ=.5} saturation threshold\n")
		}
		s.saturationForecast(w)
		return
	}

	// Multi-shard: the model is a per-tree model, so each shard gets its
	// own evaluation at its own measured parameters, followed by the
	// aggregate verdict.
	var totOps int64
	var totRate float64
	saturatedShards := 0
	for _, sc := range scrapes {
		totOps += sc.win.Ops
		totRate += sc.win.OpRate
		if sc.saturated {
			saturatedShards++
		}
	}
	fmt.Fprintf(w, "qmodel evaluated per shard at measured parameters (%d shards, %d ops, %.0f ops/s aggregate, algorithm %s)\n",
		len(scrapes), totOps, totRate, scrapes[0].sh.eng.Algorithm())
	for i, sc := range scrapes {
		fmt.Fprintf(w, "\n--- shard %d (window %.2fs, locks measured for %.4fs of it, %d ops, %.0f ops/s) ---\n\n",
			i, sc.win.Dt, sc.win.Measured, sc.win.Ops, sc.win.OpRate)
		modelSection(w, sc)
		if sc.saturated {
			fmt.Fprintf(w, "shard %d SATURATED: root ρ_w >= %.2f\n", i, SaturationRho)
		} else {
			fmt.Fprintf(w, "shard %d below the λ_{ρ=.5} saturation threshold\n", i)
		}
	}
	fmt.Fprintf(w, "\naggregate: %d/%d shards saturated\n", saturatedShards, len(scrapes))
	if saturatedShards == len(scrapes) {
		fmt.Fprintf(w, "WARNING: SATURATED — every shard's root is past λ_{ρ=.5} (§6, rules of thumb 1–4). Raise node capacity (Optimistic/Link-type) or add shards.\n")
	} else if saturatedShards > 0 {
		fmt.Fprintf(w, "WARNING: partial saturation — the hottest shard's root is past λ_{ρ=.5}; the hash router cannot steer keys away from it\n")
	}
	s.saturationForecast(w)
}

// saturationForecast prints the framework's predicted effective maximum
// arrival rate λ_{ρ=.5} for each analyzable algorithm — NLC, OD, Link and
// the fourth, OLC — at the live tree's shape and measured operation mix.
// This is the §6 planning view behind the "raise capacity or shard"
// advice: it shows what ceiling each protocol choice would buy at this
// tree size. OLC's ceiling matches Link-type's (its writers are
// Link-type writers; its readers never occupy a queue), so the line
// quantifies how far the weaker protocols fall short rather than ranking
// OLC above Link here — OLC's advantage is response time below the
// ceiling, visible in the per-level wait columns above.
func (s *Server) saturationForecast(w io.Writer) {
	eng := s.shards[0].eng
	keys := 0
	var gets, puts, dels int64
	for _, sh := range s.shards {
		keys += sh.eng.Len()
		gets += sh.gets.Load()
		puts += sh.puts.Load()
		dels += sh.dels.Load()
	}
	tot := gets + puts + dels
	if tot == 0 || keys <= eng.Cap() {
		return // no traffic or a root-only tree: nothing to forecast
	}
	mix := workload.Mix{
		QS: float64(gets) / float64(tot),
		QI: float64(puts) / float64(tot),
		QD: float64(dels) / float64(tot),
	}
	// The shape model describes a tree grown by its workload; it needs a
	// growing mix. A read-only or shrinking window still gets a forecast,
	// pinned at the paper's canonical mix.
	if mix.QI <= mix.QD {
		mix = workload.PaperMix
	}
	shp, err := shape.New(keys, eng.Cap(), mix.QI, mix.QD)
	if err != nil {
		return
	}
	costs := core.PaperCosts(1)
	costs.MemLevels = shp.Height // the serving tree is memory-resident
	m := core.Model{Shape: shp, Costs: costs}
	fmt.Fprintf(w, "\npredicted λ_{ρ=.5} per algorithm at this tree (%d keys, cap %d, mix qs=%.2f qi=%.2f qd=%.2f; model time units):\n",
		keys, eng.Cap(), mix.QS, mix.QI, mix.QD)
	for _, alg := range []core.Algorithm{core.NLC, core.OD, core.Link, core.OLC} {
		leff, err := core.EffectiveMaxThroughput(alg, m, core.Workload{Mix: mix}, SaturationRho, 1e-3)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "  %-4s λ_eff = %s\n", alg, table.F(leff))
	}
}
