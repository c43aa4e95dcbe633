package main

import "math/bits"

// hist is a log-linear latency histogram over nanoseconds: 128 linear
// sub-buckets per power of two, so a bucket is at most 1/128 (0.8 %) of
// its value wide. It is a fixed array — recording never allocates — and
// covers up to 2^40 ns (18 minutes); anything longer lands in the last
// bucket.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    uint64 // ns, for means
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxExp  = 40
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

// bucketOf maps a value to its bucket: values below 128 map to
// themselves, larger ones to (octave, top-7-bits-below-the-leading-one).
func bucketOf(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1 // position of the leading one, >= histSubBits
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	sub := (ns >> (uint(exp) - histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)*histSub + int(sub)
}

// bucketBounds is bucketOf's inverse: the half-open range [lo, hi) of
// values a bucket holds.
func bucketBounds(b int) (lo, hi uint64) {
	if b < histSub {
		return uint64(b), uint64(b) + 1
	}
	exp := uint(b/histSub) + histSubBits - 1
	sub := uint64(b % histSub)
	width := uint64(1) << (exp - histSubBits)
	lo = (uint64(1) << exp) + sub*width
	return lo, lo + width
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
	h.sum += uint64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile (0 < q <= 1) in nanoseconds, placing
// the sample linearly inside its bucket by rank so the result is not
// confined to bucket edges. An empty histogram reports 0.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n) // 1-based rank of the wanted sample
	if rank < 1 {
		rank = 1
	}
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := bucketBounds(b)
			return float64(lo) + (rank-seen-0.5)/float64(c)*float64(hi-lo)
		}
		seen += float64(c)
	}
	lo, _ := bucketBounds(histBuckets - 1)
	return float64(lo)
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}
