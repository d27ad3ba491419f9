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
