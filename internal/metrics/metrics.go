// Package metrics is the live telemetry layer that turns the paper's
// analytic quantities into measured ones. A TreeProbe holds one LevelStats
// accumulator per B-tree level; every node lock of a level reports into
// that level's accumulator through the lock.Probe interface, so a running
// server observes — per level — the model's parameters directly from its
// own lock queues:
//
//	λ_r, λ_w — lock arrival rates per class (acquisitions/second)
//	μ_r, μ_w — lock service rates per class (completions per held-second)
//	W_r, W_w — mean queue waits: the means of log-linear wait
//	           histograms, whose counts are the arrivals λ is taken from
//	ρ_w      — fraction of time a writer is active or queued (the
//	           root-level value is the paper's saturation gauge)
//
// A probe does not have to listen all the time to be exact. A TreeProbe
// is made listening and stays so until Cycle is run on it; from then on it
// listens for one short epoch in every EpochPeriod. While it listens,
// every lock transition of the tree is timed and counted exactly as if it
// always did; in between, the locks read no clock and report nothing. The
// accumulators therefore hold exact sums over the time listened, which
// the probe's gate keeps, and that time — not the wall clock — is what
// Rates divides by.
//
// Rates differences two snapshots into per-level rates over a window.
// The package only measures: the model is evaluated at those rates by
// core.AnalyzeMeasured, in the same frame as the paper's analysis.
package metrics

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"btreeperf/internal/lock"
)

// A Hist is log-linear over nanoseconds: 0–7 ns have a bucket each, and
// every power-of-two octave above is cut into histSub equal sub-buckets,
// so a bucket is at most 1/histSub (12.5 %) as wide as its lower edge and
// its midpoint lies within 1/16 of every sample in it. Samples of 2^38 ns
// (≈ 4.6 min) and more saturate into the last bucket.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
	histBuckets = (38-histSubBits+1)<<histSubBits + 1 // bucketOf(1<<38) + 1
)

// Hist is a lock-free log-linear histogram of durations and their exact
// running sum: a snapshot's count, mean and quantiles all come from the
// one record. The zero value is ready to use; all methods are safe for
// concurrent use.
type Hist struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
}

// bucketOf returns the bucket a sample lands in; zero and negative
// samples land in bucket 0.
func bucketOf(ns int64) int {
	if ns < histSub {
		return int(max(ns, 0))
	}
	shift := bits.Len64(uint64(ns)) - histSubBits - 1
	return min((shift+1)<<histSubBits+int(ns>>shift)-histSub, histBuckets-1)
}

// bucketLower returns the smallest sample that lands in bucket i.
func bucketLower(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	shift := i>>histSubBits - 1
	return int64(histSub+i&(histSub-1)) << shift
}

// bucketMid returns the midpoint of bucket i, the value quantiles report;
// the saturating bucket reports its lower edge.
func bucketMid(i int) int64 {
	lo := bucketLower(i)
	hi := lo + 1
	if i+1 < histBuckets {
		hi = bucketLower(i + 1)
	}
	return (lo + hi - 1) / 2
}

// Observe records a duration in nanoseconds.
func (h *Hist) Observe(ns int64) {
	h.buckets[bucketOf(ns)].Add(1)
	h.sum.Add(ns)
}

// ObserveN records n samples that took total nanoseconds together: each
// lands in the bucket of total/n, and the sum gains total, remainder
// included — the batched serving path attributes a batch's amortized
// per-op service time to all of its operations at once, exact in the
// mean and batch-smoothed in the tails.
func (h *Hist) ObserveN(total int64, n int64) {
	h.buckets[bucketOf(total/n)].Add(n)
	h.sum.Add(total)
}

// Snapshot copies the bucket counts and the sum. Each is loaded on its
// own: their mutual skew is bounded by in-flight observations.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Sum = h.sum.Load()
	return s
}

// HistSnapshot is an immutable copy of a Hist.
type HistSnapshot struct {
	Buckets [histBuckets]int64
	Sum     int64 // nanoseconds over every sample
}

// Sub returns the difference s − prev (the window histogram).
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	d := HistSnapshot{Sum: s.Sum - prev.Sum}
	for i := range s.Buckets {
		d.Buckets[i] = s.Buckets[i] - prev.Buckets[i]
	}
	return d
}

// Add returns the sum s + o (merging shards' histograms).
func (s HistSnapshot) Add(o HistSnapshot) HistSnapshot {
	d := HistSnapshot{Sum: s.Sum + o.Sum}
	for i := range s.Buckets {
		d.Buckets[i] = s.Buckets[i] + o.Buckets[i]
	}
	return d
}

// N returns the total sample count.
func (s HistSnapshot) N() int64 {
	var n int64
	for _, c := range s.Buckets {
		n += c
	}
	return n
}

// Mean returns the exact mean sample in nanoseconds; 0 when empty.
func (s HistSnapshot) Mean() float64 {
	n := s.N()
	if n == 0 {
		return 0
	}
	return float64(s.Sum) / float64(n)
}

// Quantile returns the q-quantile in nanoseconds: the midpoint of the
// bucket that holds the nearest-rank sample, the ⌈q·n⌉-th smallest (the
// smallest for q ≤ 0, the largest for q ≥ 1). Empty snapshots yield 0.
func (s HistSnapshot) Quantile(q float64) int64 {
	n := s.N()
	if n == 0 {
		return 0
	}
	rank := min(max(int64(math.Ceil(q*float64(n))), 1), n)
	var acc int64
	for i, c := range s.Buckets[:histBuckets-1] {
		if acc += c; acc >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}

// LevelStats accumulates lock telemetry for one B-tree level. It
// implements lock.Probe; share one instance across all node locks of a
// level. The zero value is ready to use and always listens; the levels of
// a TreeProbe listen when the TreeProbe does.
type LevelStats struct {
	gate *lock.Gate

	// One wait sample per acquisition, 0 when it did not queue: a
	// class's count is its arrivals and its mean the model's W.
	waitHistR Hist
	waitHistW Hist
	heldNsR   atomic.Int64
	heldNsW   atomic.Int64
	releasedR atomic.Int64
	releasedW atomic.Int64
	presentNs atomic.Int64

	// Latch-free (OLC) read telemetry, fed through lock.VersionProbe:
	// optimistic readers never enter the lock queue, so their cost
	// surfaces as restarts and fallbacks instead of R-waits.
	readRestarts  atomic.Int64
	readFallbacks atomic.Int64
}

// Acquired implements lock.Probe.
func (s *LevelStats) Acquired(write bool, waitNs int64) {
	if write {
		s.waitHistW.Observe(waitNs)
	} else {
		s.waitHistR.Observe(waitNs)
	}
}

// Held implements lock.Probe.
func (s *LevelStats) Held(write bool, heldNs int64) {
	if write {
		s.heldNsW.Add(heldNs)
		s.releasedW.Add(1)
	} else {
		s.heldNsR.Add(heldNs)
		s.releasedR.Add(1)
	}
}

// WriterPresence implements lock.Probe.
func (s *LevelStats) WriterPresence(ns int64) { s.presentNs.Add(ns) }

// Gate implements lock.Probe.
func (s *LevelStats) Gate() *lock.Gate { return s.gate }

// ReadRestart implements lock.VersionProbe: one failed version
// validation by a latch-free reader at this level. Like the lock's own
// reports it counts only while the probe listens, so every counter of a
// level is a sum over the same measured time.
func (s *LevelStats) ReadRestart() {
	if s.gate.Listening() {
		s.readRestarts.Add(1)
	}
}

// ReadFallback implements lock.VersionProbe: one latch-free descent
// exhausted its retries and re-descended under locks.
func (s *LevelStats) ReadFallback() {
	if s.gate.Listening() {
		s.readFallbacks.Add(1)
	}
}

// LevelSnapshot is a point-in-time copy of a LevelStats.
type LevelSnapshot struct {
	Level     int
	WaitHistR HistSnapshot // its count is the class's acquisitions
	WaitHistW HistSnapshot
	HeldNsR   int64
	HeldNsW   int64
	ReleasedR int64
	ReleasedW int64
	PresentNs int64

	ReadRestarts  int64 // OLC failed version validations
	ReadFallbacks int64 // OLC descents that fell back to locking
}

// Snapshot copies the counters. Fields are loaded individually: each is
// exact, their mutual skew is bounded by in-flight operations.
func (s *LevelStats) Snapshot() LevelSnapshot {
	return LevelSnapshot{
		WaitHistR: s.waitHistR.Snapshot(),
		WaitHistW: s.waitHistW.Snapshot(),
		HeldNsR:   s.heldNsR.Load(),
		HeldNsW:   s.heldNsW.Load(),
		ReleasedR: s.releasedR.Load(),
		ReleasedW: s.releasedW.Load(),
		PresentNs: s.presentNs.Load(),

		ReadRestarts:  s.readRestarts.Load(),
		ReadFallbacks: s.readFallbacks.Load(),
	}
}

// MaxLevels bounds the tracked tree height; a realistic B-tree is far
// shallower, and deeper levels would clamp into the top accumulator.
const MaxLevels = 24

// Epochs of a probe under Cycle: it listens for EpochLength in every
// EpochPeriod on average — one part in 64 of the time, at which the
// telemetry's cost is that share of what listening always costs. The gap
// between two epochs is drawn uniformly from half to one and a half times
// its mean, so no periodic load stays in or out of step with them.
const (
	EpochLength = time.Millisecond
	EpochPeriod = 64 * time.Millisecond
)

// TreeProbe holds per-level accumulators for one tree. Level numbering
// follows cbtree: 1 is the leaf level and the root has level == height.
type TreeProbe struct {
	levels [MaxLevels + 1]LevelStats
	gate   lock.Gate
}

// NewTreeProbe returns a probe that listens
// until Cycle is run on it: a probe nobody cycles is exact at every
// instant, which is what a test that pins counts wants.
func NewTreeProbe() *TreeProbe {
	p := &TreeProbe{}
	for i := range p.levels {
		p.levels[i].gate = &p.gate
	}
	p.gate.Open()
	return p
}

// Listening reports whether the probe is listening now.
func (p *TreeProbe) Listening() bool { return p.gate.Listening() }

// Cycle makes the probe listen in epochs — EpochLength long, EpochPeriod
// apart on average — until stop is closed, and leaves it listening as it
// found it. It returns when stopped; run it on a goroutine of its own.
func (p *TreeProbe) Cycle(stop <-chan struct{}) { p.cycle(stop, EpochLength, EpochPeriod) }

func (p *TreeProbe) cycle(stop <-chan struct{}, length, period time.Duration) {
	defer p.gate.Open()
	sleep := func(d time.Duration) bool {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return true
		case <-stop:
			return false
		}
	}
	gap := period - length
	for {
		p.gate.Close()
		if !sleep(gap/2 + rand.N(gap)) {
			return
		}
		p.gate.Open()
		if !sleep(length) {
			return
		}
	}
}

// Level returns the accumulator for a tree level (clamped to
// [1, MaxLevels]), suitable for lock.FCFSRWMutex.SetProbe.
func (p *TreeProbe) Level(level int) *LevelStats {
	if level < 1 {
		level = 1
	}
	if level > MaxLevels {
		level = MaxLevels
	}
	return &p.levels[level]
}

// Snapshot captures every level that has seen any traffic, in level order
// (leaf first), stamped with the capture time and with how long the probe
// had listened by then: the time the levels' counters are sums over.
type Snapshot struct {
	At       time.Time
	Listened time.Duration
	Levels   []LevelSnapshot
}

// Snapshot captures the probe.
func (p *TreeProbe) Snapshot() Snapshot {
	s := Snapshot{At: time.Now(), Listened: p.gate.Listened()}
	for lv := 1; lv <= MaxLevels; lv++ {
		ls := p.levels[lv].Snapshot()
		// OLC internal levels may see only latch-free traffic: restarts
		// without a single lock acquisition still count as activity.
		if ls.WaitHistR.N() == 0 && ls.WaitHistW.N() == 0 && ls.ReadRestarts == 0 {
			continue
		}
		ls.Level = lv
		s.Levels = append(s.Levels, ls)
	}
	return s
}

// LevelRates are the measured model parameters of one level over a window.
type LevelRates struct {
	Level     int
	LambdaR   float64 // reader lock arrivals per second
	LambdaW   float64 // writer lock arrivals per second
	MuR       float64 // reader service rate (completions per held-second)
	MuW       float64 // writer service rate
	MeanHoldR float64 // seconds
	MeanHoldW float64 // seconds
	MeanWaitR float64 // seconds, over all acquisitions (0-wait included)
	MeanWaitW float64 // seconds
	RhoW      float64 // writer-presence fraction of the window's measured time
	WaitHistR HistSnapshot
	WaitHistW HistSnapshot

	ReadRestarts  int64   // OLC validation failures in the window
	ReadFallbacks int64   // OLC locked fallbacks in the window
	RestartRate   float64 // OLC validation failures per second
	FallbackRate  float64 // OLC locked fallbacks per second
}

// Rates differences two snapshots of the same probe into per-level rates
// over the time the probe listened between them. Levels absent from
// either snapshot are carried with whatever window counts exist. A window
// in which the probe did not listen has no sample and yields nil, never a
// rate over zero time.
func Rates(prev, cur Snapshot) []LevelRates {
	dt := (cur.Listened - prev.Listened).Seconds()
	if dt <= 0 {
		return nil
	}
	prevByLevel := make(map[int]LevelSnapshot, len(prev.Levels))
	for _, ls := range prev.Levels {
		prevByLevel[ls.Level] = ls
	}
	var out []LevelRates
	for _, ls := range cur.Levels {
		p := prevByLevel[ls.Level] // zero value when the level is new
		d := LevelSnapshot{
			WaitHistR: ls.WaitHistR.Sub(p.WaitHistR),
			WaitHistW: ls.WaitHistW.Sub(p.WaitHistW),
			HeldNsR:   ls.HeldNsR - p.HeldNsR,
			HeldNsW:   ls.HeldNsW - p.HeldNsW,
			ReleasedR: ls.ReleasedR - p.ReleasedR,
			ReleasedW: ls.ReleasedW - p.ReleasedW,
			PresentNs: ls.PresentNs - p.PresentNs,

			ReadRestarts:  ls.ReadRestarts - p.ReadRestarts,
			ReadFallbacks: ls.ReadFallbacks - p.ReadFallbacks,
		}
		r := LevelRates{
			Level:     ls.Level,
			LambdaR:   float64(d.WaitHistR.N()) / dt,
			LambdaW:   float64(d.WaitHistW.N()) / dt,
			MeanWaitR: d.WaitHistR.Mean() / 1e9,
			MeanWaitW: d.WaitHistW.Mean() / 1e9,
			RhoW:      float64(d.PresentNs) / 1e9 / dt,
			WaitHistR: d.WaitHistR,
			WaitHistW: d.WaitHistW,

			ReadRestarts:  d.ReadRestarts,
			ReadFallbacks: d.ReadFallbacks,
			RestartRate:   float64(d.ReadRestarts) / dt,
			FallbackRate:  float64(d.ReadFallbacks) / dt,
		}
		if d.ReleasedR > 0 && d.HeldNsR > 0 {
			r.MeanHoldR = float64(d.HeldNsR) / 1e9 / float64(d.ReleasedR)
			r.MuR = 1 / r.MeanHoldR
		}
		if d.ReleasedW > 0 && d.HeldNsW > 0 {
			r.MeanHoldW = float64(d.HeldNsW) / 1e9 / float64(d.ReleasedW)
			r.MuW = 1 / r.MeanHoldW
		}
		if r.RhoW < 0 {
			r.RhoW = 0
		}
		if r.RhoW > 1 {
			r.RhoW = 1
		}
		out = append(out, r)
	}
	return out
}
