package server

import (
	"math"
	"sync/atomic"
	"time"
)

// GovState is the overload governor's health state, exposed on /healthz
// and /metrics.
type GovState int32

const (
	// GovOK: measured root ρ_w is comfortably below the threshold.
	GovOK GovState = iota
	// GovDegraded: ρ_w is between the exit and enter thresholds (on the
	// way up, a warning; on the way down, the recovery step out of
	// GovOverloaded). No traffic is shed.
	GovDegraded
	// GovOverloaded: ρ_w crossed the enter threshold; update traffic
	// (puts and deletes) is shed with StatusOverload until ρ_w has
	// stayed below the exit threshold for RecoverTicks intervals.
	GovOverloaded
)

func (g GovState) String() string {
	switch g {
	case GovOK:
		return "ok"
	case GovDegraded:
		return "degraded"
	case GovOverloaded:
		return "overloaded"
	default:
		return "unknown"
	}
}

// GovernorConfig parameterizes the model-driven overload governor: a
// background loop that watches the measured root writer utilization ρ_w
// — the quantity the paper's §6 rules of thumb bound — and sheds update
// traffic once it crosses the saturation threshold. Writers drive
// saturation in all three algorithms, so shedding them first is what
// restores the root's service capacity for reads.
//
// Every shard runs its own governor against its own root: saturation is
// a per-tree phenomenon in the model, so a hot shard sheds its own
// update traffic while the others keep serving at full admission.
//
// The governor is hysteretic in two ways: it enters shedding at
// SaturationRho but only leaves once ρ_w has stayed below exitRho for
// RecoverTicks consecutive intervals, and it passes through GovDegraded
// on the way back to GovOK. Under a sustained overload this duty-cycles admission:
// shed until the root cools off, re-admit, shed again — bounding root
// ρ_w near the threshold instead of collapsing past it.
type GovernorConfig struct {
	Disabled     bool
	Interval     time.Duration // measurement interval; default 250ms
	RecoverTicks int           // consecutive below-exitRho intervals to stop shedding; default 4
}

// exitRho is the governor's leave threshold on root ρ_w.
const exitRho = 0.8 * SaturationRho

func (c *GovernorConfig) fill() {
	if c.Interval == 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.RecoverTicks == 0 {
		c.RecoverTicks = 4
	}
}

// GovStatus is a snapshot of a governor for telemetry. Server.Governor
// returns the merged view across shards; shard blocks report each
// governor individually.
type GovStatus struct {
	State        GovState
	RootRhoW     float64 // last measured root ρ_w (merged view: max over shards)
	Rho          float64 // enter threshold (SaturationRho)
	ExitRho      float64
	Transitions  int64 // state changes since start (merged view: summed)
	ShedOverload int64 // updates shed with StatusOverload (merged view: summed)
	ConnRejects  int64 // connections refused at the MaxConns cap (server-wide)
	Disabled     bool
}

// governor watches one shard's root ρ_w and flips that shard's shedding
// switch.
type governor struct {
	cfg   GovernorConfig
	sh    *shard
	win   windowState
	state atomic.Int32
	shed  atomic.Bool
	rho   atomic.Uint64 // float64 bits of last measurement
	trans atomic.Int64
	below int // consecutive intervals below exitRho while overloaded

	stopCh chan struct{}

	// rhoFn overrides the ρ_w source; tests only, set before Serve.
	rhoFn func() float64
}

func newGovernor(sh *shard, cfg GovernorConfig) *governor {
	return &governor{cfg: cfg, sh: sh, stopCh: make(chan struct{})}
}

// shedding is the admission-path check: true while updates must be shed.
func (g *governor) shedding() bool { return g.shed.Load() }

// Status snapshots the governor and its shard's shed counters.
func (g *governor) Status() GovStatus {
	return GovStatus{
		State:        GovState(g.state.Load()),
		RootRhoW:     math.Float64frombits(g.rho.Load()),
		Rho:          SaturationRho,
		ExitRho:      exitRho,
		Transitions:  g.trans.Load(),
		ShedOverload: g.sh.ctr[cShedOverload].Load(),
		ConnRejects:  g.sh.srv.connRejects.Load(),
		Disabled:     g.cfg.Disabled,
	}
}

// start launches the measurement loop; the returned channel closes when
// the loop exits. Disabled governors return an already-closed channel.
func (g *governor) start() <-chan struct{} {
	done := make(chan struct{})
	if g.cfg.Disabled {
		close(done)
		return done
	}
	go func() {
		defer close(done)
		t := time.NewTicker(g.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-g.stopCh:
				return
			case <-t.C:
				// An interval the probe did not listen in has no sample:
				// the state and the last measurement stand.
				if rho, ok := g.measure(); ok {
					g.tick(rho)
				}
			}
		}
	}()
	return done
}

func (g *governor) stop() {
	select {
	case <-g.stopCh:
	default:
		close(g.stopCh)
	}
}

// measure returns the shard's root ρ_w over the time its probe listened
// since the last measurement, and whether it listened at all.
func (g *governor) measure() (rho float64, ok bool) {
	if g.rhoFn != nil {
		return g.rhoFn(), true
	}
	win := g.win.advance(g.sh)
	height := g.sh.eng.Height()
	for _, r := range win.Rates {
		if r.Level == height {
			rho = r.RhoW
		}
	}
	return rho, win.Measured > 0
}

// tick advances the hysteretic state machine on one measurement.
func (g *governor) tick(rho float64) {
	g.rho.Store(math.Float64bits(rho))
	st := GovState(g.state.Load())
	next := st
	switch st {
	case GovOK:
		switch {
		case rho >= SaturationRho:
			next = GovOverloaded
		case rho >= exitRho:
			next = GovDegraded
		}
	case GovDegraded:
		switch {
		case rho >= SaturationRho:
			next = GovOverloaded
		case rho < exitRho:
			next = GovOK
		}
	case GovOverloaded:
		if rho < exitRho {
			g.below++
			if g.below >= g.cfg.RecoverTicks {
				next = GovDegraded
			}
		} else {
			g.below = 0
		}
	}
	if next != st {
		g.below = 0
		g.state.Store(int32(next))
		g.shed.Store(next == GovOverloaded)
		g.trans.Add(1)
	}
}

// Governor exposes the merged governor status (telemetry, tests): the
// worst state across shards, the hottest root ρ_w, and the shed counters
// summed. A single-shard server's merged view is exactly its shard's.
func (s *Server) Governor() GovStatus {
	st := s.shards[0].gov.Status()
	for _, sh := range s.shards[1:] {
		st.merge(sh.gov.Status())
	}
	return st
}

// merge folds another shard's status into the merged view.
func (st *GovStatus) merge(o GovStatus) {
	st.State = max(st.State, o.State)
	st.RootRhoW = max(st.RootRhoW, o.RootRhoW)
	st.Transitions += o.Transitions
	st.ShedOverload += o.ShedOverload
}
