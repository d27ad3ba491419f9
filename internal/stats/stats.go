// Package stats provides the statistical accumulators used by the
// simulator and the experiment harness: streaming mean/variance,
// confidence intervals, time-weighted averages for utilization-style
// measures, fixed-bucket histograms, and cross-replication summaries.
package stats

import (
	"fmt"
	"math"
)

// Welford is a streaming mean/variance accumulator (Welford's algorithm).
// The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates a sample.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or 0 if no samples were added.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance, or 0 for fewer than
// two samples.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest sample, or 0 if empty.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest sample, or 0 if empty.
func (w *Welford) Max() float64 { return w.max }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// CI95 returns the half-width of a ~95% normal-approximation confidence
// interval for the mean. For small replication counts (n <= 30) it uses a
// Student-t critical value table.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return tCrit95(w.n-1) * w.StdErr()
}

// Merge combines another accumulator into w (Chan et al. parallel update).
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// tCrit95 is the two-sided 95% Student-t critical value for df degrees of
// freedom; for df > 30 it returns the normal value 1.96.
func tCrit95(df int64) float64 {
	table := []float64{
		// df 1..30
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return math.NaN()
	}
	if df <= int64(len(table)) {
		return table[df-1]
	}
	return 1.96
}

// TimeWeighted integrates a piecewise-constant signal over (virtual) time,
// e.g. queue length or a writer-present indicator, yielding its
// time-average. The zero value is ready to use; the first Set establishes
// the starting time.
type TimeWeighted struct {
	started  bool
	lastT    float64
	lastV    float64
	integral float64
	t0       float64
}

// Set records that the signal has value v from time t onward.
// Times must be non-decreasing.
func (tw *TimeWeighted) Set(t, v float64) {
	if !tw.started {
		tw.started = true
		tw.t0 = t
		tw.lastT, tw.lastV = t, v
		return
	}
	if t < tw.lastT {
		panic(fmt.Sprintf("stats: TimeWeighted time went backwards: %v < %v", t, tw.lastT))
	}
	tw.integral += tw.lastV * (t - tw.lastT)
	tw.lastT, tw.lastV = t, v
}

// Average returns the time-average of the signal over [t0, t], flushing the
// segment since the last Set. Returns 0 if the window is empty.
func (tw *TimeWeighted) Average(t float64) float64 {
	if !tw.started || t <= tw.t0 {
		return 0
	}
	integral := tw.integral
	if t > tw.lastT {
		integral += tw.lastV * (t - tw.lastT)
	}
	return integral / (t - tw.t0)
}

// Histogram is a fixed-width bucket histogram over [lo, hi); samples outside
// the range land in saturating under/overflow buckets.
type Histogram struct {
	lo, hi  float64
	buckets []int64
	under   int64
	over    int64
	n       int64
}

// NewHistogram creates a histogram with n buckets spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{lo: lo, hi: hi, buckets: make([]int64, n)}
}

// Add records a sample.
func (h *Histogram) Add(x float64) {
	h.n++
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int((x - h.lo) / (h.hi - h.lo) * float64(len(h.buckets)))
		if i == len(h.buckets) { // float edge
			i--
		}
		h.buckets[i]++
	}
}

// Quantile returns an approximate q-quantile (0<=q<=1) assuming samples are
// uniform within a bucket. Under/overflow samples are pinned to the range
// bounds.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.n)
	acc := float64(h.under)
	if target <= acc {
		return h.lo
	}
	width := (h.hi - h.lo) / float64(len(h.buckets))
	for i, c := range h.buckets {
		if target <= acc+float64(c) {
			frac := 0.0
			if c > 0 {
				frac = (target - acc) / float64(c)
			}
			return h.lo + (float64(i)+frac)*width
		}
		acc += float64(c)
	}
	return h.hi
}

// Counts returns a copy of the bucket counts plus underflow and overflow.
func (h *Histogram) Counts() (buckets []int64, under, over int64) {
	out := make([]int64, len(h.buckets))
	copy(out, h.buckets)
	return out, h.under, h.over
}

// Summary reduces a set of replication results (one value per seed) to a
// mean with a confidence half-width.
type Summary struct {
	Mean float64
	CI95 float64
	N    int
	Min  float64
	Max  float64
}

// Summarize computes a Summary over the values.
func Summarize(values []float64) Summary {
	var w Welford
	for _, v := range values {
		w.Add(v)
	}
	return Summary{Mean: w.Mean(), CI95: w.CI95(), N: int(w.N()), Min: w.Min(), Max: w.Max()}
}
