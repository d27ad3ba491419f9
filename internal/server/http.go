package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"

	"btreeperf/internal/core"
	"btreeperf/internal/table"
)

// Handler returns the HTTP mux serving /metrics, /debug/model, and
// /healthz.
func (s *Server) Handler() http.Handler { return s.handler(false) }

// HandlerWithProfiling is Handler plus net/http/pprof mounted under
// /debug/pprof/, exposing the CPU, heap, goroutine, mutex, and block
// profiles on the telemetry listener. Mutex and block profiles are empty
// unless the process also sets runtime.SetMutexProfileFraction and
// runtime.SetBlockProfileRate, as btserved's -pprof does.
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
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var poisoned bytes.Buffer
	seqs := make([]int64, len(s.shards))
	for i, sh := range s.shards {
		seqs[i] = s.shardSeq(i)
		if perr := sh.eng.Poisoned(); perr != nil {
			if len(s.shards) > 1 {
				fmt.Fprintf(&poisoned, "shard=%d ", i)
			}
			fmt.Fprintf(&poisoned, "engine=%s error=%q commit_fails=%d unavail=%d\n",
				sh.eng.Kind(), perr, sh.ctr[cCommitFails].Load(), sh.ctr[cUnavail].Load())
		}
	}
	if poisoned.Len() > 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "poisoned")
		w.Write(poisoned.Bytes())
		return
	}
	g := s.Governor()
	if g.State == GovOverloaded {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintln(w, g.State)
	fmt.Fprintf(w, "governor=%s root_rho_w=%.4f threshold=%.2f exit=%.2f shed_overload=%d conn_rejects=%d\n",
		govName(g), g.RootRhoW, g.Rho, g.ExitRho, g.ShedOverload, g.ConnRejects)
	if rs := s.replicationStats(); rs != nil {
		fmt.Fprintf(w, "replication role=%s seqs=%v lag_seqs=%d\n", rs.Role, seqs, rs.LagSeqs)
	} else if se, ok := s.shards[0].eng.(seqEngine); ok && se.Journal() != nil {
		// Unreplicated but journal-backed: still report the durable seqs —
		// the committed bound a future follower would resume from.
		fmt.Fprintf(w, "seqs durable=%v\n", seqs)
	}
	if len(s.shards) > 1 {
		for i, sh := range s.shards {
			gs := sh.gov.Status()
			fmt.Fprintf(w, "shard=%d state=%s rho_w=%.4f shed_overload=%d\n",
				i, govName(gs), gs.RootRhoW, gs.ShedOverload)
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := s.capture()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		c.writeJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	c.writeText(w)
}

// handlePromote flips a follower into a leader (POST only). It answers
// 409 on a server that is not currently following — promotion of a
// leader or an unreplicated server is always an operator error, and the
// losers of concurrent promotions land here too — and 500 when the node
// cannot lead (no replication listen address, or a shard without a
// journal): Promote refused before touching the applier, so the node is
// still following and the operator promotes another.
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
func modelSection(w io.Writer, sc shardScrape) {
	tb := table.New("per-level FCFS R/W queues (leaf=1 .. root)",
		"level", "λ_r/s", "λ_w/s", "μ_r/s", "μ_w/s",
		"ρ_w meas", "ρ_w model", "T_a µs", "W_w meas µs", "W_w pred µs", "stable")
	for _, p := range sc.win.Rates {
		row := []string{
			fmt.Sprintf("%d", p.Level),
			table.F(p.LambdaR), table.F(p.LambdaW),
			table.F(p.MuR), table.F(p.MuW),
			table.F(p.RhoW),
		}
		if l := sc.model.Level(p.Level); l.Solved {
			row = append(row,
				table.F(l.RhoW),
				table.F(us(l.TA)),
				table.F(us(p.MeanWaitW)),
				table.F(us(l.W)),
				fmt.Sprintf("%v", l.Stable))
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
		predNs := sc.model.RespAt(sc.win.HeardRate) * 1e9
		fmt.Fprintf(w, "\nresponse time over the %.4fs measured: observed mean %.1f µs, model predicted %.1f µs",
			sc.win.Measured, sc.win.HeardMeanNs/1e3, predNs/1e3)
		if sc.win.HeardMeanNs > 0 && predNs > 0 {
			ratio := predNs / sc.win.HeardMeanNs
			fmt.Fprintf(w, " (pred/obs = %.2f)", ratio)
		}
		fmt.Fprintln(w)
		if sc.win.OpRate > 0 && sc.win.ObsMeanNs > 0 {
			// Timing the locks slows the tree the model's rates come from.
			fmt.Fprintf(w, "epoch tax: heard rate / window rate = %.2f, heard mean / observed mean = %.2f\n",
				sc.win.HeardRate/sc.win.OpRate, sc.win.HeardMeanNs/sc.win.ObsMeanNs)
		}
	}
	fmt.Fprintf(w, "root rho_w: measured %s, model %s, threshold %.2f\n",
		sc.rho(sc.rhoMeas), sc.rho(sc.rhoModel), SaturationRho)
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	scrapes := s.scrape(func(sh *shard) *windowState { return &sh.modelWin })
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")

	if len(scrapes) == 1 {
		sc := scrapes[0]
		fmt.Fprintf(w, "qmodel evaluated at measured parameters (window %.2fs, locks measured for %.4fs of it, %d ops, %.0f ops/s, algorithm %s)\n\n",
			sc.win.Dt, sc.win.Measured, sc.win.Ops, sc.win.OpRate, s.shards[0].eng.Algorithm())
		modelSection(w, sc)
		if sc.saturated {
			fmt.Fprintf(w, "WARNING: SATURATED — root writer utilization ρ_w >= %.2f, the paper's effective maximum arrival rate λ_{ρ=.5} (§6, rules of thumb 1–4). Raise node capacity (Optimistic/Link-type) or shard.\n", SaturationRho)
		} else {
			fmt.Fprintf(w, "root below the λ_{ρ=.5} saturation threshold\n")
		}
		s.saturationForecast(w, scrapes)
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
		len(scrapes), totOps, totRate, s.shards[0].eng.Algorithm())
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
	s.saturationForecast(w, scrapes)
}

// saturationForecast prints the server's λ_{ρ=.5} in ops/s (§6, rules
// of thumb 1–4): the least over shards of capacity_i ÷ share_i, where
// capacity_i is read off shard i's measured levels in its heard ops/s
// (core.Result.Capacity) and share_i is its share of the window's ops
// (none divides to +Inf). A window with no lock sample or no writer
// traffic prints nothing. btmodel holds the what-if across algorithms.
func (s *Server) saturationForecast(w io.Writer, scrapes []shardScrape) {
	var ops int64
	for _, sc := range scrapes {
		ops += sc.win.Ops
	}
	best, bind, level := math.Inf(1), 0, 0
	for i, sc := range scrapes {
		rate, lv := sc.model.Capacity(sc.win.HeardRate, SaturationRho)
		if c := rate * float64(ops) / float64(sc.win.Ops); lv > 0 && c < best {
			best, bind, level = c, i, lv
		}
	}
	alg, err := core.ParseAlgorithm(s.shards[0].eng.Algorithm())
	if level == 0 || err != nil {
		return
	}
	sc, where := scrapes[bind], ""
	if len(scrapes) > 1 {
		where = fmt.Sprintf(" of shard %d (%.1f%% of the window's ops)", bind, 100*float64(sc.win.Ops)/float64(ops))
	}
	fmt.Fprintf(w, "\npredicted λ_{ρ=.5} in ops/s: level %d%s reaches model ρ_w %.2f first, its measured μ and λ per op held and scaled from the %.0f ops/s heard while its locks were timed\n",
		level, where, SaturationRho, sc.win.HeardRate)
	fmt.Fprintf(w, "  %s  λ_eff = %.0f\n", alg, best)
}
