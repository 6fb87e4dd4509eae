package stats

import "math/bits"

// DurationHist is a log-bucketed histogram of call durations (in cycles).
// It is the structure behind the paper's Figures 1, 2, 15 and 16, which plot
// the *fraction of total time* spent in calls of a given duration, on a
// logarithmic duration axis.
//
// Buckets are HDR-style: each power-of-two range is split into subBuckets
// equal sub-ranges, giving bounded relative error while covering durations
// from 1 cycle to hundreds of millions.
//
// Bucket storage is a pair of fixed dense arrays (the index space is only
// 64*histSubBuckets wide) rather than maps: Add runs once per simulated
// call on the step-profiler hot path, and an array increment beats a hash
// probe by an order of magnitude. The read-side accessors simply skip empty
// buckets, so observable output is unchanged.
type DurationHist struct {
	counts [histBuckets]uint64 // bucket index -> number of calls
	sums   [histBuckets]uint64 // bucket index -> total cycles of those calls
	total  uint64              // total cycles across all calls
	n      uint64              // total number of calls
}

const (
	histSubBuckets = 8
	histBuckets    = 64 * histSubBuckets
)

// NewDurationHist returns an empty histogram.
func NewDurationHist() *DurationHist {
	return &DurationHist{}
}

// bucketIndex maps a duration to its bucket.
func bucketIndex(d uint64) int {
	if d < histSubBuckets {
		return int(d)
	}
	exp := 63 - bits.LeadingZeros64(d)
	// Sub-bucket within the power-of-two range [2^exp, 2^(exp+1)).
	sub := int((d >> (uint(exp) - 3)) & (histSubBuckets - 1))
	return exp*histSubBuckets + sub
}

// bucketBounds returns the [lo, hi) duration range of a bucket index.
func bucketBounds(idx int) (lo, hi uint64) {
	if idx < histSubBuckets {
		return uint64(idx), uint64(idx + 1)
	}
	exp := idx / histSubBuckets
	sub := idx % histSubBuckets
	width := uint64(1) << (uint(exp) - 3)
	lo = (uint64(1) << uint(exp)) + uint64(sub)*width
	return lo, lo + width
}

// Add records one call of the given duration.
func (h *DurationHist) Add(d uint64) {
	i := bucketIndex(d)
	h.counts[i]++
	h.sums[i] += d
	h.total += d
	h.n++
}

// N returns the number of recorded calls.
func (h *DurationHist) N() uint64 { return h.n }

// TotalCycles returns the sum of all recorded durations.
func (h *DurationHist) TotalCycles() uint64 { return h.total }

// MeanCycles returns the average call duration.
func (h *DurationHist) MeanCycles() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.total) / float64(h.n)
}

// Bucket is one row of an extracted distribution.
type Bucket struct {
	Lo, Hi  uint64  // duration range [Lo, Hi)
	Count   uint64  // number of calls in range
	Cycles  uint64  // total cycles of those calls
	TimePct float64 // percent of total time spent in these calls
	CallPct float64 // percent of all calls
}

// Buckets returns the non-empty buckets in increasing duration order with
// time and call percentages filled in.
func (h *DurationHist) Buckets() []Bucket {
	nz := 0
	for i := range h.counts {
		if h.counts[i] != 0 {
			nz++
		}
	}
	out := make([]Bucket, 0, nz)
	for i := range h.counts {
		if h.counts[i] == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		b := Bucket{Lo: lo, Hi: hi, Count: h.counts[i], Cycles: h.sums[i]}
		if h.total > 0 {
			b.TimePct = 100 * float64(b.Cycles) / float64(h.total)
		}
		if h.n > 0 {
			b.CallPct = 100 * float64(b.Count) / float64(h.n)
		}
		out = append(out, b)
	}
	return out
}

// TimeCDFBelow returns the percentage of total call time spent in calls
// with duration strictly below d. This is the quantity behind Figure 2
// ("more than 60% of time is spent on calls that take less than 100
// cycles").
func (h *DurationHist) TimeCDFBelow(d uint64) float64 {
	if h.total == 0 {
		return 0
	}
	limit := bucketIndex(d)
	var acc uint64
	for i := 0; i < limit && i < histBuckets; i++ {
		acc += h.sums[i]
	}
	return 100 * float64(acc) / float64(h.total)
}

// MedianCycles returns the approximate median call duration (by call count),
// interpolated within its bucket.
func (h *DurationHist) MedianCycles() float64 { return h.PercentileCycles(50) }

// PercentileCycles returns the approximate p-th percentile (0-100) of call
// duration by call count.
func (h *DurationHist) PercentileCycles(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := p / 100 * float64(h.n)
	var acc float64
	last := 0
	for i := range h.counts {
		if h.counts[i] == 0 {
			continue
		}
		last = i
		c := float64(h.counts[i])
		if acc+c >= target {
			lo, hi := bucketBounds(i)
			frac := (target - acc) / c
			return float64(lo) + frac*float64(hi-lo)
		}
		acc += c
	}
	_, hi := bucketBounds(last)
	return float64(hi)
}
