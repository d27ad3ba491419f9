package core

import (
	"math"
	"strings"
	"testing"

	"btreeperf/internal/shape"
	"btreeperf/internal/workload"
)

// paperModel is the configuration of the paper's experiments: N=13,
// ~40,000 items (5 levels, root fanout ≈ 6), disk cost D, 2 in-memory
// levels.
func paperModel(t testing.TB, d float64) Model {
	t.Helper()
	s, err := shape.New(40000, 13, 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return Model{Shape: s, Costs: PaperCosts(d)}
}

func paperWorkload(lambda float64) Workload {
	return Workload{Lambda: lambda, Mix: workload.PaperMix}
}

func TestCostModel(t *testing.T) {
	c := PaperCosts(5)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	h := 5
	// Top two levels in memory, rest on disk at 5×.
	if c.Se(5, h) != 1 || c.Se(4, h) != 1 {
		t.Fatalf("in-memory Se: %v %v", c.Se(5, h), c.Se(4, h))
	}
	for i := 1; i <= 3; i++ {
		if c.Se(i, h) != 5 {
			t.Fatalf("Se(%d) = %v, want 5", i, c.Se(i, h))
		}
	}
	if c.M(h) != 10 {
		t.Fatalf("M = %v, want 10", c.M(h))
	}
	if c.Sp(3, h) != 15 || c.Sp(5, h) != 3 {
		t.Fatalf("Sp = %v / %v", c.Sp(3, h), c.Sp(5, h))
	}
}

func TestCostModelValidation(t *testing.T) {
	bad := []CostModel{
		{SearchMem: 0, DiskCost: 1, ModifyFactor: 2, SplitFactor: 3, MergeFactor: 3, Dilation: 1},
		{SearchMem: 1, DiskCost: 0.5, ModifyFactor: 2, SplitFactor: 3, MergeFactor: 3, Dilation: 1},
		{SearchMem: 1, DiskCost: 1, MemLevels: -1, ModifyFactor: 2, SplitFactor: 3, MergeFactor: 3, Dilation: 1},
		{SearchMem: 1, DiskCost: 1, ModifyFactor: 0, SplitFactor: 3, MergeFactor: 3, Dilation: 1},
		{SearchMem: 1, DiskCost: 1, ModifyFactor: 2, SplitFactor: 3, MergeFactor: 3, Dilation: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestDilationScalesCosts(t *testing.T) {
	c := PaperCosts(5)
	c.Dilation = 2
	if c.Se(5, 5) != 2 || c.M(5) != 20 {
		t.Fatalf("dilation not applied: Se=%v M=%v", c.Se(5, 5), c.M(5))
	}
}

func TestStrings(t *testing.T) {
	if NLC.String() != "naive-lock-coupling" || OD.String() != "optimistic-descent" || Link.String() != "link-type" {
		t.Fatal("Algorithm strings")
	}
	if Algorithm(9).String() == "" {
		t.Fatal("unknown algorithm string")
	}
	if NoRecovery.String() != "none" || LeafOnly.String() != "leaf-only" || NaiveRecovery.String() != "naive" {
		t.Fatal("RecoveryPolicy strings")
	}
	if RecoveryPolicy(9).String() == "" {
		t.Fatal("unknown recovery string")
	}
}

func TestNLCNoContentionLimit(t *testing.T) {
	m := paperModel(t, 5)
	res, err := AnalyzeNLC(m, paperWorkload(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Fatal("vanishing load unstable")
	}
	// Per(S) → Σ Se(i) = 5+5+5+1+1 = 17.
	if math.Abs(res.RespSearch-17) > 0.01 {
		t.Errorf("RespSearch = %v, want ≈17", res.RespSearch)
	}
	// Per(I) → M + Σ_{i≥2}Se + Σ ProdPrF(j)·Sp(j) ≈ 10+12+1.15.
	if res.RespInsert < 22 || res.RespInsert > 24 {
		t.Errorf("RespInsert = %v, want ≈23.1", res.RespInsert)
	}
	// Per(D) → M + Σ_{i≥2}Se = 22.
	if math.Abs(res.RespDelete-22) > 0.1 {
		t.Errorf("RespDelete = %v, want ≈22", res.RespDelete)
	}
	for _, lv := range res.Levels {
		if lv.RhoW > 1e-6 {
			t.Errorf("level %d ρ_w = %v at vanishing load", lv.Level, lv.RhoW)
		}
	}
}

func TestNLCMonotoneInLambda(t *testing.T) {
	m := paperModel(t, 5)
	prevResp, prevRho := 0.0, -1.0
	for _, lambda := range []float64{0.001, 0.005, 0.01, 0.015, 0.02} {
		res, err := AnalyzeNLC(m, paperWorkload(lambda))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stable {
			break
		}
		if res.RespInsert <= prevResp {
			t.Fatalf("insert response not increasing at λ=%v: %v <= %v", lambda, res.RespInsert, prevResp)
		}
		if res.RootRhoW() <= prevRho {
			t.Fatalf("root ρ_w not increasing at λ=%v", lambda)
		}
		prevResp, prevRho = res.RespInsert, res.RootRhoW()
	}
	if prevRho <= 0 {
		t.Fatal("no stable points evaluated")
	}
}

func TestNLCRootIsBottleneck(t *testing.T) {
	m := paperModel(t, 5)
	res, err := AnalyzeNLC(m, paperWorkload(0.02))
	if err != nil {
		t.Fatal(err)
	}
	root := res.RootRhoW()
	for _, lv := range res.Levels[:len(res.Levels)-1] {
		if lv.RhoW >= root {
			t.Errorf("level %d ρ_w %v >= root %v (Theorem 2 says the root saturates first)",
				lv.Level, lv.RhoW, root)
		}
	}
}

func TestNLCSaturation(t *testing.T) {
	m := paperModel(t, 5)
	res, err := AnalyzeNLC(m, paperWorkload(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stable {
		t.Fatal("λ=10 should saturate Naive Lock-coupling")
	}
	if res.RootRhoW() != 1 {
		t.Fatalf("saturated root ρ_w = %v", res.RootRhoW())
	}
}

func TestRootRhoWGrowsNonlinearly(t *testing.T) {
	// Figure 10: going from ρ_w=.5 to ρ_w→1 takes less than a 50% rate
	// increase for Naive Lock-coupling.
	m := paperModel(t, 5)
	mix := paperWorkload(0)
	l50, err := EffectiveMaxThroughput(NLC, m, mix, 0.5, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	lmax, err := MaxThroughput(NLC, m, mix, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if lmax <= l50 {
		t.Fatalf("λ_max %v <= λ_.5 %v", lmax, l50)
	}
	if ratio := lmax / l50; ratio >= 1.5 {
		t.Errorf("λ_max/λ_.5 = %v, paper predicts < 1.5", ratio)
	}
}

func TestAlgorithmRanking(t *testing.T) {
	// Figure 12: Link ≫ OD ≫ NLC in maximum throughput.
	m := paperModel(t, 5)
	mix := paperWorkload(0)
	nlc, err := MaxThroughput(NLC, m, mix, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	od, err := MaxThroughput(OD, m, mix, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	link, err := MaxThroughput(Link, m, mix, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if !(link > 2*od) {
		t.Errorf("Link max %v should far exceed OD max %v", link, od)
	}
	if !(od > 1.5*nlc) {
		t.Errorf("OD max %v should clearly exceed NLC max %v", od, nlc)
	}
}

func TestResponseRankingNearSaturation(t *testing.T) {
	// Figure 12: near NLC's saturation its response blows up while OD and
	// Link stay nearly flat; near OD's saturation Link stays flat.
	m := paperModel(t, 5)
	mix := paperWorkload(0)
	nlcMax, err := MaxThroughput(NLC, m, mix, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	w := paperWorkload(0.97 * nlcMax)
	nlc, err := AnalyzeNLC(m, w)
	if err != nil {
		t.Fatal(err)
	}
	od, err := AnalyzeOD(m, w, ODOptions{})
	if err != nil {
		t.Fatal(err)
	}
	link, err := AnalyzeLink(m, w)
	if err != nil {
		t.Fatal(err)
	}
	if !nlc.Stable {
		t.Fatal("NLC unstable just below its max throughput")
	}
	if !(nlc.RespInsert > 1.5*od.RespInsert) {
		t.Errorf("near NLC saturation: nlc=%v should dwarf od=%v", nlc.RespInsert, od.RespInsert)
	}
	if !(nlc.RespSearch > 1.5*link.RespSearch) {
		t.Errorf("near NLC saturation: nlc search=%v should dwarf link=%v", nlc.RespSearch, link.RespSearch)
	}

	odMax, err := MaxThroughput(OD, m, mix, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	w2 := paperWorkload(0.97 * odMax)
	od2, err := AnalyzeOD(m, w2, ODOptions{})
	if err != nil {
		t.Fatal(err)
	}
	link2, err := AnalyzeLink(m, w2)
	if err != nil {
		t.Fatal(err)
	}
	if !od2.Stable || !link2.Stable {
		t.Fatal("OD/Link unstable just below OD's max")
	}
	if !(od2.RespInsert > 1.5*link2.RespInsert) {
		t.Errorf("near OD saturation: od=%v should dwarf link=%v", od2.RespInsert, link2.RespInsert)
	}
}

func TestNLCMaxThroughputFallsWithDiskCost(t *testing.T) {
	// Figure 11.
	mix := paperWorkload(0)
	prev := math.Inf(1)
	for _, d := range []float64{1, 2, 5, 10, 20} {
		m := paperModel(t, d)
		lmax, err := MaxThroughput(NLC, m, mix, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		if lmax >= prev {
			t.Errorf("max throughput did not fall at D=%v: %v >= %v", d, lmax, prev)
		}
		prev = lmax
	}
}

func TestODBeatsNLCMoreWithLargerNodes(t *testing.T) {
	// §6: OD's effective maximum grows with N; NLC's does not.
	mix := paperWorkload(0)
	ratios := make([]float64, 0, 3)
	for _, n := range []int{13, 29, 59} {
		s, err := shape.NewWithHeight(5, n, 6, 0.5, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		m := Model{Shape: s, Costs: PaperCosts(1)}
		nlc, err := EffectiveMaxThroughput(NLC, m, mix, 0.5, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		od, err := EffectiveMaxThroughput(OD, m, mix, 0.5, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, od/nlc)
	}
	if !(ratios[0] < ratios[1] && ratios[1] < ratios[2]) {
		t.Errorf("OD/NLC advantage should grow with N: %v", ratios)
	}
}

func TestRuleOfThumb1MatchesModel(t *testing.T) {
	// Figure 13, in-memory case: rule of thumb 1 closely tracks the full
	// model's λ_{ρ=.5}.
	mix := paperWorkload(0)
	for _, n := range []int{13, 29, 59, 101} {
		s, err := shape.NewWithHeight(5, n, 6, 0.5, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		m := Model{Shape: s, Costs: PaperCosts(1)}
		rot, err := RuleOfThumb1(m, mix)
		if err != nil {
			t.Fatal(err)
		}
		full, err := EffectiveMaxThroughput(NLC, m, mix, 0.5, 1e-5)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(rot-full) / full; rel > 0.35 {
			t.Errorf("N=%d: rule of thumb 1 = %v, model = %v (rel %.2f)", n, rot, full, rel)
		}
	}
}

func TestRuleOfThumb1ApproachesLimit(t *testing.T) {
	// Figure 13: as N grows, rule 1 approaches the limit rule 2.
	mix := paperWorkload(0)
	prevGap := math.Inf(1)
	for _, n := range []int{13, 59, 201, 1001} {
		s, err := shape.NewWithHeight(5, n, 20, 0.5, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		m := Model{Shape: s, Costs: PaperCosts(1)}
		r1, err := RuleOfThumb1(m, mix)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := RuleOfThumb2(m, mix)
		if err != nil {
			t.Fatal(err)
		}
		gap := math.Abs(r1-r2) / r2
		if gap > prevGap+1e-12 {
			t.Errorf("gap to limit grew at N=%d: %v > %v", n, gap, prevGap)
		}
		prevGap = gap
	}
	if prevGap > 0.05 {
		t.Errorf("rule 1 did not approach limit: residual relative gap %v", prevGap)
	}
}

func TestRuleOfThumb3MatchesModel(t *testing.T) {
	// Figure 14 (in-memory): rule of thumb 3 tracks the OD model,
	// improving as N grows.
	mix := paperWorkload(0)
	for _, n := range []int{29, 59, 101} {
		s, err := shape.NewWithHeight(5, n, 6, 0.5, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		m := Model{Shape: s, Costs: PaperCosts(1)}
		rot, err := RuleOfThumb3(m, mix)
		if err != nil {
			t.Fatal(err)
		}
		full, err := EffectiveMaxThroughput(OD, m, mix, 0.5, 1e-5)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(rot-full) / full; rel > 0.45 {
			t.Errorf("N=%d: rule of thumb 3 = %v, model = %v (rel %.2f)", n, rot, full, rel)
		}
	}
}

func TestRuleOfThumb4Scaling(t *testing.T) {
	// Rule 4 ∝ 1/(q_i·Pr[F(1)]), so it grows roughly like N/log N.
	mix := paperWorkload(0)
	prev := 0.0
	for _, n := range []int{13, 59, 201} {
		s, err := shape.NewWithHeight(4, n, 6, 0.5, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		m := Model{Shape: s, Costs: PaperCosts(1)}
		r4, err := RuleOfThumb4(m, mix)
		if err != nil {
			t.Fatal(err)
		}
		if r4 <= prev {
			t.Fatalf("rule 4 not increasing in N at %d: %v <= %v", n, r4, prev)
		}
		prev = r4
	}
}

func TestRecoveryOrdering(t *testing.T) {
	// Figures 15/16: Naive recovery ≫ Leaf-only ≳ no recovery, at D=10,
	// TTrans=100.
	s, err := shape.NewWithHeight(5, 13, 6, 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{Shape: s, Costs: PaperCosts(10)}

	// The throughput gap: naive recovery saturates earlier.
	mix := paperWorkload(0)
	maxNone, err := maxOD(m, mix, ODOptions{Recovery: NoRecovery})
	if err != nil {
		t.Fatal(err)
	}
	maxLeaf, err := maxOD(m, mix, ODOptions{Recovery: LeafOnly, TTrans: 100})
	if err != nil {
		t.Fatal(err)
	}
	maxNaive, err := maxOD(m, mix, ODOptions{Recovery: NaiveRecovery, TTrans: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !(maxNaive < maxLeaf && maxLeaf <= maxNone) {
		t.Errorf("max throughputs: naive=%v leaf=%v none=%v", maxNaive, maxLeaf, maxNone)
	}

	// Response ordering near naive recovery's saturation (where Figure 15
	// shows the naive curve blowing up while the others stay flat).
	w := paperWorkload(0.95 * maxNaive)
	none, err := AnalyzeOD(m, w, ODOptions{Recovery: NoRecovery})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := AnalyzeOD(m, w, ODOptions{Recovery: LeafOnly, TTrans: 100})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := AnalyzeOD(m, w, ODOptions{Recovery: NaiveRecovery, TTrans: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !none.Stable || !leaf.Stable || !naive.Stable {
		t.Fatalf("stability at 0.95·maxNaive: none=%v leaf=%v naive=%v",
			none.Stable, leaf.Stable, naive.Stable)
	}
	if !(leaf.RespInsert >= none.RespInsert) {
		t.Errorf("leaf-only %v should be ≥ none %v", leaf.RespInsert, none.RespInsert)
	}
	if !(naive.RespInsert > 1.2*leaf.RespInsert) {
		t.Errorf("naive %v should be well above leaf-only %v", naive.RespInsert, leaf.RespInsert)
	}
}

// maxOD is MaxThroughput for OD with recovery options.
func maxOD(m Model, mix Workload, opts ODOptions) (float64, error) {
	stable := func(lambda float64) (bool, error) {
		res, err := AnalyzeOD(m, Workload{Lambda: lambda, Mix: mix.Mix}, opts)
		if err != nil {
			return false, err
		}
		return res.Stable, nil
	}
	return solveBoundary(stable, 1e-4)
}

func TestLinkHasEnormousHeadroom(t *testing.T) {
	// §6: the Link-type algorithm's maximum throughput is enormous —
	// far beyond the loads that saturate the others.
	m := paperModel(t, 5)
	mix := paperWorkload(0)
	link, err := MaxThroughput(Link, m, mix, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	nlc, err := MaxThroughput(NLC, m, mix, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if link < 10*nlc {
		t.Errorf("Link max %v should dwarf NLC max %v", link, nlc)
	}
}

func TestSearchOnlyMixNeverSaturates(t *testing.T) {
	m := paperModel(t, 5)
	w := Workload{Lambda: 100, Mix: workload.Mix{QS: 1}}
	for _, analyze := range []func() (*Result, error){
		func() (*Result, error) { return AnalyzeNLC(m, w) },
		func() (*Result, error) { return AnalyzeLink(m, w) },
	} {
		res, err := analyze()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stable {
			t.Error("read-only workload saturated")
		}
		if res.RespSearch <= 0 {
			t.Error("non-positive search response")
		}
	}
}

func TestAnalyzeDispatch(t *testing.T) {
	m := paperModel(t, 5)
	w := paperWorkload(0.001)
	for _, a := range []Algorithm{NLC, OD, Link} {
		res, err := Analyze(a, m, w)
		if err != nil {
			t.Fatal(err)
		}
		if res.Algorithm != a {
			t.Errorf("dispatch returned %v for %v", res.Algorithm, a)
		}
	}
	if _, err := Analyze(Algorithm(9), m, w); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestWorkloadValidation(t *testing.T) {
	m := paperModel(t, 5)
	if _, err := AnalyzeNLC(m, Workload{Lambda: -1, Mix: workload.PaperMix}); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := AnalyzeNLC(Model{}, paperWorkload(1)); err == nil {
		t.Error("nil shape accepted")
	}
	if _, err := AnalyzeOD(m, paperWorkload(1), ODOptions{TTrans: -1}); err == nil {
		t.Error("negative TTrans accepted")
	}
}

func TestRespMean(t *testing.T) {
	r := &Result{RespSearch: 10, RespInsert: 20, RespDelete: 30}
	got := r.RespMean(workload.PaperMix)
	want := 0.3*10 + 0.5*20 + 0.2*30
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("RespMean = %v, want %v", got, want)
	}
}

func TestEffectiveMaxTargetValidation(t *testing.T) {
	m := paperModel(t, 5)
	mix := paperWorkload(0)
	for _, target := range []float64{0, 1, -0.5, 1.5} {
		if _, err := EffectiveMaxThroughput(NLC, m, mix, target, 1e-4); err == nil {
			t.Errorf("target %v accepted", target)
		}
	}
}

// TestParseNames: every command-line spelling resolves, every String form
// parses back to its value, and an unknown name's error lists what is
// accepted.
func TestParseNames(t *testing.T) {
	algs := map[string]Algorithm{
		"nlc": NLC, "lock-coupling": NLC, "od": OD, "optimistic": OD,
		"link": Link, "lehman-yao": Link, "2pl": TwoPhase, "two-phase": TwoPhase,
		"olc": OLC, "optimistic-lock-coupling": OLC,
	}
	for _, a := range []Algorithm{NLC, OD, Link, TwoPhase, OLC} {
		algs[a.String()] = a
	}
	for name, want := range algs {
		if got, err := ParseAlgorithm(name); err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	recs := map[string]RecoveryPolicy{"none": NoRecovery, "leaf": LeafOnly, "naive": NaiveRecovery}
	for _, r := range []RecoveryPolicy{NoRecovery, LeafOnly, NaiveRecovery} {
		recs[r.String()] = r
	}
	for name, want := range recs {
		if got, err := ParseRecovery(name); err != nil || got != want {
			t.Errorf("ParseRecovery(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseAlgorithm("b-link"); err == nil || !strings.Contains(err.Error(), "nlc, od, link, 2pl or olc") {
		t.Errorf("ParseAlgorithm(b-link): %v", err)
	}
	if _, err := ParseRecovery("aries"); err == nil || !strings.Contains(err.Error(), "none, leaf or naive") {
		t.Errorf("ParseRecovery(aries): %v", err)
	}
}
