package main

import "math/bits"

// hist is an exact log-linear latency histogram over nanoseconds: every
// power-of-two octave is cut into 128 equal sub-buckets, so a bucket is at
// most 1/128 (0.78 %) wide relative to its lower edge. Every sample is
// counted; there is no reservoir. Not safe for concurrent use: each
// connection owns its histograms and they are merged after the run.
type hist struct {
	counts [histBuckets]uint32
	n      int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// 40 octaves above the linear range cover 2^47 ns, about 39 hours.
	histBuckets = histSub * 41
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - histSubBits - 1
	i := (shift+1)<<histSubBits + int(ns>>shift) - histSub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histLower returns the smallest value that lands in bucket i.
func histLower(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	shift := i>>histSubBits - 1
	return int64(histSub+i&(histSub-1)) << shift
}

// histMid returns the midpoint of bucket i, the value quantiles report.
func histMid(i int) float64 {
	lo := histLower(i)
	hi := lo + 1
	if i+1 < histBuckets {
		hi = histLower(i + 1)
	}
	return float64(lo+hi-1) / 2
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 for an empty
// histogram): the midpoint of the bucket holding the ceil(q·n)-th sample.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := int64(q*float64(h.n) + 0.9999999)
	if target < 1 {
		target = 1
	}
	if target > h.n {
		target = h.n
	}
	var acc int64
	for i, c := range h.counts {
		acc += int64(c)
		if acc >= target {
			return histMid(i)
		}
	}
	return histMid(histBuckets - 1)
}

// mean returns the bucket-midpoint estimate of the mean, in nanoseconds.
func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	var sum float64
	for i, c := range h.counts {
		if c != 0 {
			sum += float64(c) * histMid(i)
		}
	}
	return sum / float64(h.n)
}

// max returns the midpoint of the highest occupied bucket.
func (h *hist) max() float64 {
	for i := histBuckets - 1; i >= 0; i-- {
		if h.counts[i] != 0 {
			return histMid(i)
		}
	}
	return 0
}
