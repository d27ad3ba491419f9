package core

import (
	"math"
	"testing"

	"btreeperf/internal/qmodel"
)

// TestAnalyzeMeasured holds every measured level to the frame's station
// to the bit — Theorem 6's operating point from qmodel.Solve, Theorem 4's
// R wait, and the reader drain on top for W — and checks the composed
// per-op response.
func TestAnalyzeMeasured(t *testing.T) {
	ordinary := qmodel.Input{LambdaR: 100, LambdaW: 10, MuR: 1e5, MuW: 1e5}
	inf := math.Inf(1)
	cases := []struct {
		name   string
		levels []qmodel.Input
		solved []bool
		opRate float64
		lo, hi float64 // bounds on RespAt(opRate), seconds
	}{
		{"no writers", []qmodel.Input{{LambdaR: 1000, MuR: 1e6}}, []bool{true}, 1000, 1e-6, 1e-6},
		// Writers arrived, none released: μ_w is unknown, so the level
		// is not evaluated and its writers add no hold.
		{"writers without a release", []qmodel.Input{{LambdaR: 1000, LambdaW: 50, MuR: 1e6}}, []bool{false}, 1000, 1e-6, 1e-6},
		{"saturated", []qmodel.Input{{LambdaR: 9e4, LambdaW: 2e5, MuR: 1e5, MuW: 1e5}}, []bool{true}, 1e5, inf, inf},
		{"ordinary", []qmodel.Input{ordinary}, []bool{true}, 100, 11e-6, 11.1e-6},
		// An OLC inner level that saw only restarts has no entry.
		{"level with no entry", []qmodel.Input{ordinary, {}, ordinary}, []bool{true, false, true}, 100, 22e-6, 22.2e-6},
		// Two levels visited once per op at 1000 ops/s, with holds of
		// 1 µs and 2 µs and next to no waiting: about 3 µs.
		{"holds of 1us and 2us", []qmodel.Input{
			{LambdaR: 800, LambdaW: 200, MuR: 1e6, MuW: 1e6},
			{LambdaR: 1000, MuR: 5e5},
		}, []bool{true, true}, 1000, 3e-6, 3.01e-6},
		{"no operations", []qmodel.Input{
			{LambdaR: 800, LambdaW: 200, MuR: 1e6, MuW: 1e6},
			{LambdaR: 1000, MuR: 5e5},
		}, []bool{true, true}, 0, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := AnalyzeMeasured(tc.levels)
			if len(res.Levels) != len(tc.levels) {
				t.Fatalf("%d levels, want %d", len(res.Levels), len(tc.levels))
			}
			for i, in := range tc.levels {
				l := res.Level(i + 1)
				if l.Level != i+1 || (qmodel.Input{LambdaR: l.LambdaR, LambdaW: l.LambdaW, MuR: l.MuR, MuW: l.MuW}) != in {
					t.Errorf("level %d: %+v does not carry its input %+v", i+1, l, in)
				}
				if l.Solved != tc.solved[i] {
					t.Fatalf("level %d: solved %v, want %v", i+1, l.Solved, tc.solved[i])
				}
				if !l.Solved {
					if l.RhoW != 0 || l.R != 0 || l.W != 0 || l.Stable {
						t.Errorf("unsolved level %d carries a model: %+v", i+1, l)
					}
					continue
				}
				sol, err := qmodel.Solve(in)
				if err != nil {
					t.Fatal(err)
				}
				r := qmodel.MM1Wait(sol.RhoW, sol.TA)
				w := r + sol.RhoW*sol.RU + (1-sol.RhoW)*sol.RE
				if l.RhoW != sol.RhoW || l.RU != sol.RU || l.RE != sol.RE || l.TA != sol.TA || l.Stable != sol.Stable {
					t.Errorf("level %d: %+v, qmodel.Solve says %+v", i+1, l, sol)
				}
				if l.R != r || l.W != w {
					t.Errorf("level %d: R, W = %v, %v; want %v, %v", i+1, l.R, l.W, r, w)
				}
			}
			if got := res.RespAt(tc.opRate); !(got >= tc.lo && got <= tc.hi) {
				t.Errorf("RespAt(%v) = %v s, want in [%v, %v]", tc.opRate, got, tc.lo, tc.hi)
			}
		})
	}

	light := AnalyzeMeasured([]qmodel.Input{ordinary}).Level(1)
	heavy := AnalyzeMeasured([]qmodel.Input{{LambdaR: 9e4, LambdaW: 5e4, MuR: 1e5, MuW: 1e5}}).Level(1)
	if !light.Stable || light.RhoW >= 0.5 || heavy.RhoW < 0.5 {
		t.Errorf("ρ_w light %v (stable %v), heavy %v: want light < .5 <= heavy", light.RhoW, light.Stable, heavy.RhoW)
	}
}

// TestCapacity holds Capacity to a closed form where there is one — a
// writers-only level is an M/M/1 queue of writers, ρ_w = λ_w/μ_w, so it
// binds at μ_w/(2·v_w) operations per second — and everywhere else to
// its definition: just below the returned rate every solved level is
// below the target, just above it the named level is not, and the
// forecast does not move when the same visits and holds are measured at
// another rate.
func TestCapacity(t *testing.T) {
	const target = 0.5
	scaled := func(levels []qmodel.Input, f float64) []qmodel.Input {
		out := make([]qmodel.Input, len(levels))
		for i, in := range levels {
			out[i] = qmodel.Input{LambdaR: in.LambdaR * f, LambdaW: in.LambdaW * f, MuR: in.MuR, MuW: in.MuW}
		}
		return out
	}
	cases := []struct {
		name   string
		levels []qmodel.Input
		opRate float64
		want   float64 // the closed form, or 0 for none
		level  int     // 0: no forecast
	}{
		// v_w = .3 writes per op, μ_w = 1e5/s: 1e5/(2·.3) ops/s.
		{"writers only", []qmodel.Input{{LambdaW: 300, MuW: 1e5}}, 1000, 1e5 / 0.6, 1},
		// The leaf takes .9 writes per op at μ_w 2e5/s, the root .05 at
		// 1e5/s: the leaf binds near 1.1e5 ops/s, the root not before 1e6.
		{"leaf binds before the root", []qmodel.Input{
			{LambdaR: 100, LambdaW: 900, MuR: 1e6, MuW: 2e5},
			{LambdaR: 950, LambdaW: 50, MuR: 1e6, MuW: 1e5},
		}, 1000, 0, 1},
		// Lock coupling: every op visits every level, readers take R
		// locks and updates W locks all the way down, and the root's
		// slow W holds bind.
		{"lock coupling", []qmodel.Input{
			{LambdaR: 300, LambdaW: 700, MuR: 1e6, MuW: 5e5},
			{LambdaR: 300, LambdaW: 700, MuR: 3e5, MuW: 1e5},
			{LambdaR: 300, LambdaW: 700, MuR: 3e5, MuW: 7e4},
		}, 1000, 0, 3},
		{"no traffic", []qmodel.Input{{}, {}}, 0, 0, 0},
		{"no traffic at a positive rate", []qmodel.Input{{}, {}}, 1000, 0, 0},
		{"readers only", []qmodel.Input{{LambdaR: 1000, MuR: 1e6}, {LambdaR: 1000, MuR: 5e5}}, 1000, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rate, level := AnalyzeMeasured(tc.levels).Capacity(tc.opRate, target)
			if level != tc.level {
				t.Fatalf("Capacity = %v ops/s at level %d, want level %d", rate, level, tc.level)
			}
			if level == 0 {
				if rate != 0 {
					t.Errorf("no forecast, but rate %v", rate)
				}
				return
			}
			if tc.want > 0 && math.Abs(rate/tc.want-1) > 1e-3 {
				t.Errorf("Capacity = %v ops/s, want %v", rate, tc.want)
			}
			for _, l := range AnalyzeMeasured(scaled(tc.levels, rate*(1-1e-3)/tc.opRate)).Levels {
				if l.Solved && (!l.Stable || l.RhoW >= target) {
					t.Errorf("just below %v ops/s level %d is at ρ_w %v (stable %v)", rate, l.Level, l.RhoW, l.Stable)
				}
			}
			if l := AnalyzeMeasured(scaled(tc.levels, rate*(1+1e-3)/tc.opRate)).Level(level); l.Stable && l.RhoW < target {
				t.Errorf("just above %v ops/s level %d is still at ρ_w %v", rate, level, l.RhoW)
			}
			again, at := AnalyzeMeasured(scaled(tc.levels, 2)).Capacity(2*tc.opRate, target)
			if at != level || math.Abs(again/rate-1) > 1e-3 {
				t.Errorf("measured at twice the rate: %v ops/s at level %d, want %v at %d", again, at, rate, level)
			}
		})
	}
}
