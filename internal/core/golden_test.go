package core

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"btreeperf/internal/shape"
	"btreeperf/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/analysis.golden from the current analysis")

// goldenVariant is one analysis the golden file pins: the five algorithms
// plus both §7 recovery variants of Optimistic Descent.
type goldenVariant struct {
	name    string
	analyze func(Model, Workload) (*Result, error)
	max     func(Model, Workload) (float64, error)
	eff     func(Model, Workload) (float64, error) // λ at root ρ_w = .5; nil for the recovery variants
}

func goldenVariants() []goldenVariant {
	plain := func(a Algorithm) goldenVariant {
		return goldenVariant{a.String(),
			func(m Model, w Workload) (*Result, error) { return Analyze(a, m, w) },
			func(m Model, w Workload) (float64, error) { return MaxThroughput(a, m, w, 1e-4) },
			func(m Model, w Workload) (float64, error) { return EffectiveMaxThroughput(a, m, w, 0.5, 1e-5) }}
	}
	recovery := func(r RecoveryPolicy) goldenVariant {
		opts := ODOptions{Recovery: r, TTrans: 100}
		return goldenVariant{"od+" + r.String(),
			func(m Model, w Workload) (*Result, error) { return AnalyzeOD(m, w, opts) },
			func(m Model, w Workload) (float64, error) { return MaxThroughputOD(m, w, opts, 1e-4) }, nil}
	}
	return []goldenVariant{plain(NLC), plain(OD), plain(Link), plain(TwoPhase), plain(OLC),
		recovery(LeafOnly), recovery(NaiveRecovery)}
}

// hashResult folds every field of a Result — each level's eleven solved
// values (TA and Solved follow from them), the response times and the
// OLC restart diagnostics — into one word, float by float at full
// precision.
func hashResult(r *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(vs ...float64) {
		for _, v := range vs {
			word(math.Float64bits(v))
		}
	}
	boolean := func(v bool) {
		if v {
			word(1)
		} else {
			word(0)
		}
	}
	word(uint64(r.Algorithm))
	f(r.Lambda)
	boolean(r.Stable)
	for _, l := range r.Levels {
		word(uint64(l.Level))
		f(l.LambdaR, l.LambdaW, l.MuR, l.MuW, l.RhoW, l.RU, l.RE, l.R, l.W)
		boolean(l.Stable)
	}
	f(r.RespSearch, r.RespInsert, r.RespDelete)
	word(uint64(len(r.ReadConflict)))
	f(r.ReadConflict...)
	f(r.RestartProb, r.FallbackProb, r.RestartsPerOp)
	return h.Sum64()
}

// goldenAnalysis renders the pinned operating points: for every variant ×
// tree × mix one "curve" line with the maximum and effective-maximum throughput, then one line
// per load — three below the knee, two at it, two past it (saturate) —
// with the three response times and the root's ρ_w as raw float bits and a
// hash of every other field.
func goldenAnalysis(t *testing.T) []byte {
	trees := []struct {
		items, cap int
		d          float64
	}{
		{4000, 7, 5}, {40000, 13, 5}, {40000, 13, 10}, {300000, 59, 10}, {40000, 201, 1},
	}
	mixes := []struct {
		name string
		mix  workload.Mix
		prEm float64 // Pr[Em(1)] handed to the shape: the delete-side terms
	}{
		{"paper", workload.PaperMix, 0},
		{"read-only", workload.Mix{QS: 1}, 0},
		{"update-only", workload.Mix{QI: 0.6, QD: 0.4}, 0},
		{"delete-heavy", workload.Mix{QS: 0.1, QI: 0.45, QD: 0.45}, 0.02},
	}
	fracs := []float64{0.05, 0.3, 0.6, 0.9, 0.99, 1.01, 1.5}

	var out bytes.Buffer
	for _, v := range goldenVariants() {
		for _, tr := range trees {
			for _, mx := range mixes {
				s, err := shape.New(tr.items, tr.cap, 0.5, 0.2)
				if err != nil {
					t.Fatal(err)
				}
				if mx.prEm > 0 {
					s.SetPrEm(1, mx.prEm)
					if s.Height > 2 {
						s.SetPrEm(2, mx.prEm/4)
					}
				}
				m := Model{Shape: s, Costs: PaperCosts(tr.d)}
				lmax, err := v.max(m, Workload{Mix: mx.mix})
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, "%s cap=%d D=%g %s max=%016x", v.name, tr.cap, tr.d, mx.name, math.Float64bits(lmax))
				if v.eff != nil {
					l50, err := v.eff(m, Workload{Mix: mx.mix})
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&out, " eff=%016x", math.Float64bits(l50))
				}
				out.WriteByte('\n')
				top := math.Min(lmax, 60)
				for _, fr := range fracs {
					if mx.mix.QS == 1 && fr != 0.3 && fr != 1.5 {
						continue // no writers: every load reads the same
					}
					res, err := v.analyze(m, Workload{Lambda: fr * top, Mix: mx.mix})
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&out, " %g %016x %016x %016x %016x %016x\n", fr,
						math.Float64bits(res.RespSearch), math.Float64bits(res.RespInsert),
						math.Float64bits(res.RespDelete), math.Float64bits(res.RootRhoW()), hashResult(res))
				}
			}
		}
	}
	return out.Bytes()
}

// TestGoldenAnalysis holds every analysis to the bits the code produced
// when the file was recorded: the figures print six digits, so a
// reassociated sum or a reordered product that moves the last place of a
// float passes them and fails here. Rewrite the file (-update) only for an
// intended change of the numbers, and say so.
func TestGoldenAnalysis(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("recorded on amd64; compilers that fuse multiply-adds round differently")
	}
	got := goldenAnalysis(t)
	path := filepath.Join("testdata", "analysis.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	curve, diffs := "", 0
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if len(wl[i]) > 0 && wl[i][0] != ' ' {
			curve = string(wl[i])
		}
		if !bytes.Equal(gl[i], wl[i]) {
			if diffs++; diffs <= 10 {
				t.Errorf("line %d (%s)\n got %s\nwant %s", i+1, curve, gl[i], wl[i])
			}
		}
	}
	t.Fatalf("%d of %d lines differ from %s (lengths %d, %d)", diffs, len(wl), path, len(gl), len(wl))
}
