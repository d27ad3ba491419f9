package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"btreeperf/internal/xrand"
)

func TestMixValidate(t *testing.T) {
	if err := PaperMix.Validate(); err != nil {
		t.Fatalf("PaperMix invalid: %v", err)
	}
	bad := []Mix{
		{QS: 0.5, QI: 0.5, QD: 0.5},
		{QS: -0.1, QI: 0.6, QD: 0.5},
		{QS: 0.2, QI: 0.2, QD: 0.2},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("Mix %+v accepted", m)
		}
	}
	if u := PaperMix.QI + PaperMix.QD; u != 0.7 {
		t.Fatalf("update share = %v", u)
	}
}

func TestOpString(t *testing.T) {
	if Search.String() != "search" || Insert.String() != "insert" || Delete.String() != "delete" {
		t.Fatal("Op strings")
	}
	if Op(7).String() != "Op(7)" {
		t.Fatal("unknown Op string")
	}
}

func TestKeyPoolBasics(t *testing.T) {
	kp := NewKeyPool()
	src := xrand.New(1)
	if _, ok := kp.Pick(src); ok {
		t.Fatal("picked from empty pool")
	}
	kp.Add(5)
	kp.Add(5) // duplicate is a no-op
	kp.Add(9)
	if kp.Len() != 2 {
		t.Fatalf("Len = %d", kp.Len())
	}
	if !kp.Remove(5) {
		t.Fatal("Remove(5)")
	}
	if kp.Remove(5) {
		t.Fatal("double remove succeeded")
	}
	k, ok := kp.Pick(src)
	if !ok || k != 9 {
		t.Fatalf("Pick = %d,%v", k, ok)
	}
	k, ok = kp.Take(src)
	if !ok || k != 9 || kp.Len() != 0 {
		t.Fatalf("Take = %d,%v len=%d", k, ok, kp.Len())
	}
}

func TestKeyPoolUniformity(t *testing.T) {
	kp := NewKeyPool()
	for i := int64(0); i < 10; i++ {
		kp.Add(i)
	}
	src := xrand.New(2)
	counts := make(map[int64]int)
	const n = 100000
	for i := 0; i < n; i++ {
		k, _ := kp.Pick(src)
		counts[k]++
	}
	for k, c := range counts {
		if math.Abs(float64(c)/n-0.1) > 0.01 {
			t.Fatalf("key %d frequency %v", k, float64(c)/n)
		}
	}
}

func TestGeneratorProportions(t *testing.T) {
	pool := NewKeyPool()
	for i := int64(0); i < 10000; i++ {
		pool.Add(i * 2)
	}
	src := xrand.New(3)
	g, err := NewGenerator(PaperMix, pool, 1<<30, src)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Op]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		op, _ := g.Next()
		counts[op]++
	}
	for op, want := range map[Op]float64{Search: 0.3, Insert: 0.5, Delete: 0.2} {
		got := float64(counts[op]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%v fraction %v, want ~%v", op, got, want)
		}
	}
}

func TestGeneratorDeleteTargetsLiveKeys(t *testing.T) {
	pool := NewKeyPool()
	live := map[int64]bool{}
	for i := int64(0); i < 1000; i++ {
		pool.Add(i)
		live[i] = true
	}
	src := xrand.New(4)
	g, _ := NewGenerator(Mix{QS: 0, QI: 0.5, QD: 0.5}, pool, 1<<30, src)
	for i := 0; i < 2000; i++ {
		op, k := g.Next()
		switch op {
		case Delete:
			if !live[k] {
				t.Fatalf("delete of dead key %d", k)
			}
			delete(live, k)
		case Insert:
			live[k] = true
		}
	}
}

func TestGeneratorEmptyPoolDegradesToInsert(t *testing.T) {
	pool := NewKeyPool()
	src := xrand.New(5)
	g, _ := NewGenerator(Mix{QS: 0.5, QI: 0, QD: 0.5}, pool, 100, src)
	op, _ := g.Next()
	if op != Insert {
		t.Fatalf("first op on empty pool = %v, want insert", op)
	}
}

func TestGeneratorValidation(t *testing.T) {
	pool := NewKeyPool()
	src := xrand.New(1)
	if _, err := NewGenerator(Mix{QS: 1, QI: 1, QD: 1}, pool, 100, src); err == nil {
		t.Error("bad mix accepted")
	}
	if _, err := NewGenerator(PaperMix, pool, 0, src); err == nil {
		t.Error("zero key space accepted")
	}
}

func TestBuildReachesTarget(t *testing.T) {
	src := xrand.New(6)
	tr, pool, err := Build(13, 40000, PaperMix, 1<<31, src)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() < 40000 {
		t.Fatalf("built %d keys", tr.Len())
	}
	if pool.Len() != tr.Len() {
		t.Fatalf("pool %d vs tree %d", pool.Len(), tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The paper's configuration yields a 5-level tree.
	if tr.Height() != 5 {
		t.Fatalf("height = %d, want 5", tr.Height())
	}
}

func TestBuildDeterministic(t *testing.T) {
	t1, _, _ := Build(13, 5000, PaperMix, 1<<31, xrand.New(9))
	t2, _, _ := Build(13, 5000, PaperMix, 1<<31, xrand.New(9))
	if t1.Len() != t2.Len() || t1.Height() != t2.Height() {
		t.Fatal("builds with identical seeds differ")
	}
	s1, s2 := t1.Stats(), t2.Stats()
	if s1 != s2 {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
}

func TestBuildRequiresGrowth(t *testing.T) {
	if _, _, err := Build(13, 100, Mix{QS: 0, QI: 0.5, QD: 0.5}, 1000, xrand.New(1)); err == nil {
		t.Fatal("qi == qd accepted for construction")
	}
}

func TestScanMix(t *testing.T) {
	mix := Mix{QS: 0.2, QI: 0.3, QD: 0.1, QR: 0.4}
	if err := mix.Validate(); err != nil {
		t.Fatalf("scan mix invalid: %v", err)
	}
	pool := NewKeyPool()
	g, err := NewGenerator(mix, pool, 1<<20, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Op]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		op, key := g.Next()
		counts[op]++
		if op == Scan {
			// Scans anchor at live keys, never mutate the pool.
			if _, ok := pool.pos[key]; !ok {
				t.Fatalf("scan key %d not live", key)
			}
		}
	}
	got := float64(counts[Scan]) / n
	// The scan share runs slightly under q_r early on (an empty pool
	// degrades scans to inserts), so allow a loose band.
	if got < 0.35 || got > 0.45 {
		t.Fatalf("scan share %.3f, want ~0.4", got)
	}
	if Scan.String() != "scan" {
		t.Fatal("Scan string")
	}
}

// TestScanZeroShareIsPaperStream pins backward determinism: with QR=0 a
// fixed seed must draw the exact op/key stream the three-op generator
// drew, so every pre-scan experiment stays reproducible. The golden
// hash is the stream the generator produced before the scan band was
// added to the draw order.
func TestScanZeroShareIsPaperStream(t *testing.T) {
	pool := NewKeyPool()
	g, err := NewGenerator(PaperMix, pool, 1<<16, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for i := 0; i < 10000; i++ {
		op, key := g.Next()
		fmt.Fprintf(h, "%d:%d;", op, key)
	}
	const gold = uint64(0xe135c499f781a7db)
	if got := h.Sum64(); got != gold {
		t.Fatalf("QR=0 stream hash %#x, want %#x: the draw order changed and pre-scan experiments are no longer reproducible", got, gold)
	}
}

func TestScenario(t *testing.T) {
	for _, name := range []string{"paper", "point", "read-heavy", "insert-heavy", "scan-heavy", "scan-mixed"} {
		m, err := Scenario(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%s mix invalid: %v", name, err)
		}
	}
	if m, _ := Scenario("paper"); m != PaperMix {
		t.Fatal("paper scenario drifted from PaperMix")
	}
	if m, _ := Scenario("scan-heavy"); m.QR < 0.5 {
		t.Fatalf("scan-heavy QR = %v", m.QR)
	}
	if _, err := Scenario("nope"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestSkewZeroIsUniformStream pins the -zipf 0 default to the exact
// draw stream the generator produced before the skew knob existed: the
// knob must be invisible when off.
func TestSkewZeroIsUniformStream(t *testing.T) {
	pool := NewKeyPool()
	g, err := NewGenerator(PaperMix, pool, 1<<16, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	g.SetSkew(0)
	h := fnv.New64a()
	for i := 0; i < 10000; i++ {
		op, key := g.Next()
		fmt.Fprintf(h, "%d:%d;", op, key)
	}
	const gold = uint64(0xe135c499f781a7db) // TestScanZeroShareIsPaperStream's hash
	if got := h.Sum64(); got != gold {
		t.Fatalf("skew-0 stream hash %#x, want %#x", got, gold)
	}
}

// TestSkewConcentratesAccesses checks the knob does what the contention
// experiments need: with s > 0 a small fraction of distinct keys absorbs
// a large fraction of search traffic, and children inherit the skew
// through Split.
func TestSkewConcentratesAccesses(t *testing.T) {
	run := func(skew float64) (top10Share float64) {
		pool := NewKeyPool()
		for k := int64(0); k < 1000; k++ {
			pool.Add(k * 7)
		}
		g, err := NewGenerator(Mix{QS: 1, QI: 0, QD: 0}, pool, 1<<16, xrand.New(7))
		if err != nil {
			t.Fatal(err)
		}
		g.SetSkew(skew)
		g = g.Split(2)[0] // skew must survive Split
		counts := map[int64]int{}
		const draws = 20000
		for i := 0; i < draws; i++ {
			op, key := g.Next()
			if op != Search {
				t.Fatalf("pure-search mix drew %v", op)
			}
			counts[key]++
		}
		best := make([]int, 0, len(counts))
		for _, c := range counts {
			best = append(best, c)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(best)))
		top := 0
		for i := 0; i < 10 && i < len(best); i++ {
			top += best[i]
		}
		return float64(top) / draws
	}
	uniform := run(0)
	skewed := run(1.1)
	if skewed < 3*uniform {
		t.Errorf("zipf 1.1 top-10 share %.3f not well above uniform %.3f", skewed, uniform)
	}
	if skewed < 0.25 {
		t.Errorf("zipf 1.1 top-10 keys absorb only %.1f%% of searches", 100*skewed)
	}
}
