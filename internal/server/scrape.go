package server

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"btreeperf/internal/core"
	"btreeperf/internal/metrics"
	"btreeperf/internal/qmodel"
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
	prevOp       metrics.HistSnapshot
	prevCommit   metrics.HistSnapshot
	prevFsync    metrics.HistSnapshot
	prevHeardOps int64
	prevHeardNs  int64
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
	ObsMeanNs float64 // observed mean per-op service time, pickup → release
	OpHist    metrics.HistSnapshot

	// The commit pipeline's share of that, per batch with a mutation:
	// hand-off to the committer → release. Empty on a mem shard.
	CommitWaitMeanNs float64
	CommitWaitHist   metrics.HistSnapshot

	// Every fsync of the oplog, call to return: group commits' and
	// checkpoint trims'. Empty on a mem shard.
	FsyncHist metrics.HistSnapshot

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
	op, commit := sh.opLat.Snapshot(), sh.commitWait.Snapshot()
	var fsync metrics.HistSnapshot
	if d, ok := sh.eng.(*DiskEngine); ok {
		fsync = d.Journal().Fsyncs()
	}

	out := window{
		Dt:             cur.At.Sub(w.prev.At).Seconds(),
		Measured:       (cur.Listened - w.prev.Listened).Seconds(),
		Rates:          metrics.Rates(w.prev, cur),
		OpHist:         op.Sub(w.prevOp),
		CommitWaitHist: commit.Sub(w.prevCommit),
		FsyncHist:      fsync.Sub(w.prevFsync),
	}
	out.Ops, out.ObsMeanNs = out.OpHist.N(), out.OpHist.Mean()
	out.CommitWaitMeanNs = out.CommitWaitHist.Mean()
	if out.Dt > 0 {
		out.OpRate = float64(out.Ops) / out.Dt
	}
	heardOps, heardNs := sh.heardOps.Load(), sh.heardNs.Load()
	if n := heardOps - w.prevHeardOps; n > 0 && out.Measured > 0 {
		out.HeardRate = float64(n) / out.Measured
		out.HeardMeanNs = float64(heardNs-w.prevHeardNs) / float64(n)
	}
	w.prev, w.prevOp, w.prevCommit, w.prevFsync = cur, op, commit, fsync
	w.prevHeardOps, w.prevHeardNs = heardOps, heardNs
	return out
}

// rhoGauge is a root ρ_w taken over a window's lock sample. A window no
// probe listened in has no utilization to report, which is not the same
// as a utilization of zero: JSON carries the number, text prints n/a.
type rhoGauge struct {
	v       float64
	sampled bool
}

func (sc *shardScrape) rho(v float64) rhoGauge { return rhoGauge{v, sc.win.Measured > 0} }

func (r rhoGauge) MarshalJSON() ([]byte, error) { return json.Marshal(r.v) }

func (r rhoGauge) String() string {
	if !r.sampled {
		return "n/a"
	}
	return fmt.Sprintf("%.4f", r.v)
}

// shardScrape is everything one scrape reports about one shard, read
// from the live shard exactly once: every view of a response — the
// shard's own block, the merged top level, a text line — is computed
// from this copy, so the views of one response always agree.
type shardScrape struct {
	id        int
	win       window
	height    int
	keys      int64
	indexKeys int64
	ctr       [nCounters]int64
	es        EngineStats
	gov       GovStatus
	seq       int64 // applied on a follower, durable on a journal-backed leader, zero otherwise
	poisoned  bool

	// Derived from win by evaluate.
	model     core.Result // the window's levels, one per level up to the highest in Rates
	levels    []levelMetricsJSON
	rhoMeas   float64
	rhoModel  float64
	saturated bool
}

// evaluate solves the model at the window's measured rates, and reads
// the root's measured and model ρ_w off the shard's own level rows: the
// shard is saturated when either crosses the threshold.
func (sc *shardScrape) evaluate() {
	var in []qmodel.Input
	for _, p := range sc.win.Rates {
		for len(in) < p.Level {
			in = append(in, qmodel.Input{})
		}
		in[p.Level-1] = qmodel.Input{LambdaR: p.LambdaR, LambdaW: p.LambdaW, MuR: p.MuR, MuW: p.MuW}
	}
	sc.model = *core.AnalyzeMeasured(in)
	sc.levels = mergeLevels([]shardScrape{*sc})
	for _, l := range sc.levels {
		if l.Root {
			sc.rhoMeas, sc.rhoModel = l.RhoW, l.ModelRhoW
		}
	}
	sc.saturated = sc.rhoMeas >= SaturationRho || sc.rhoModel >= SaturationRho
}

// scrape advances the selected window of every shard and evaluates the
// model at each shard's measured parameters.
func (s *Server) scrape(winOf func(*shard) *windowState) []shardScrape {
	out := make([]shardScrape, len(s.shards))
	for i, sh := range s.shards {
		sc := &out[i]
		*sc = shardScrape{
			id:       i,
			win:      winOf(sh).advance(sh),
			height:   sh.eng.Height(),
			keys:     int64(sh.eng.Len()),
			es:       sh.eng.Stats(),
			gov:      sh.gov.Status(),
			seq:      s.shardSeq(i),
			poisoned: sh.eng.Poisoned() != nil,
		}
		if sh.idx != nil {
			sc.indexKeys = int64(sh.idx.Len())
		}
		for c := range sc.ctr {
			sc.ctr[c] = sh.ctr[c].Load()
		}
		sc.evaluate()
	}
	return out
}

// capture is one /metrics response's worth of state: the shards' scrapes
// and the facts that belong to the server as a whole. The encoders take
// a capture and never the live server.
type capture struct {
	uptime        float64 // seconds
	algorithm     string
	engine        string // mem | disk
	capacity      int64
	conns         int64
	indexed       bool
	badFrames     int64 // malformed frames (wire-level; op-level bads are per shard)
	readTimeouts  int64
	writeTimeouts int64
	repl          *replicationJSON // nil on an unreplicated server
	shards        []shardScrape
}

func (s *Server) capture() *capture {
	eng := s.shards[0].eng
	return &capture{
		uptime:        time.Since(s.start).Seconds(),
		algorithm:     eng.Algorithm(),
		engine:        eng.Kind(),
		capacity:      int64(eng.Cap()),
		conns:         s.connsNow.Load(),
		indexed:       s.shards[0].idx != nil,
		badFrames:     s.badReqs.Load(),
		readTimeouts:  s.readTimeouts.Load(),
		writeTimeouts: s.writeTimeouts.Load(),
		repl:          s.replicationStats(),
		shards:        s.scrape(func(sh *shard) *windowState { return &sh.metricsWin }),
	}
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

// appendText appends the level's /metrics text line; olc adds the
// latch-free read columns.
func (l levelMetricsJSON) appendText(b []byte, olc bool) []byte {
	role := "inner"
	if l.Root {
		role = "root"
	} else if l.Level == 1 {
		role = "leaf"
	}
	b = fmt.Appendf(b, "level=%d role=%s lambda_r=%.0f lambda_w=%.0f mu_r=%.0f mu_w=%.0f hold_r_us=%.2f hold_w_us=%.2f wait_r_us=%.2f wait_w_us=%.2f wait_w_p99_us=%.1f rho_w=%.4f model_rho_w=%.4f stable=%v",
		l.Level, role, l.LambdaR, l.LambdaW, l.MuR, l.MuW,
		l.HoldRUs, l.HoldWUs, l.WaitRUs, l.WaitWUs, l.WaitWP99,
		l.RhoW, l.ModelRhoW, l.Stable)
	if olc {
		b = fmt.Appendf(b, " read_restarts=%d read_fallbacks=%d restart_rate=%.1f fallback_rate=%.1f",
			l.ReadRestarts, l.ReadFallbacks, l.RestartRate, l.FallbackRate)
	}
	return append(b, '\n')
}

// mergeLevels folds every shard's measured levels and their model into
// one per-level view: arrival rates sum (total offered load at that depth
// across shards), service rates and holds are arrival-weighted means, and
// both measured and model ρ_w take the max over shards — the merged gauge
// answers "is any root at this depth saturated", which is what sharding
// makes the operative question. Stable is the conjunction over evaluated
// shards.
// One shard's own rows are the merge of that shard alone, weighted by 1
// so that its means are its values to the last bit.
func mergeLevels(scrapes []shardScrape) []levelMetricsJSON {
	maxH := 0
	for _, sc := range scrapes {
		maxH = max(maxH, len(sc.model.Levels))
	}
	var out []levelMetricsJSON
	for lvl := 1; lvl <= maxH; lvl++ {
		m := levelMetricsJSON{Level: lvl, Stable: true}
		var wsum, muR, muW, holdR, holdW, waitR, waitW float64
		var hist metrics.HistSnapshot
		found, anyEval := false, false
		for _, sc := range scrapes {
			for _, p := range sc.win.Rates {
				if p.Level != lvl {
					continue
				}
				found = true
				wgt := p.LambdaR + p.LambdaW
				if wgt <= 0 || len(scrapes) == 1 {
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
				if l := sc.model.Level(lvl); l.Solved {
					anyEval = true
					if l.RhoW > m.ModelRhoW {
						m.ModelRhoW = l.RhoW
					}
					m.Stable = m.Stable && l.Stable
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
