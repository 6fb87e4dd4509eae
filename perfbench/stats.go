package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a timing may be reported at,
// lowest first.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p90 over 20 samples is two samples, not a tail.
const minBeyond = 10

// highestTail returns the highest percentile on tailLadder that leaves at
// least minBeyond of n samples beyond it, or 0 when even the median does
// not (fewer than 20 samples).
func highestTail(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		// Samples beyond p: n·(100−p)/100, compared with a little slack
		// because 100−99.9 is not exact in binary.
		if float64(n)*(100-p) >= 100*minBeyond-1e-6 {
			best = p
		}
	}
	return best
}

// percentile is the linearly interpolated p-th percentile (0..100) of xs,
// the same rule as Python's statistics.quantiles(method="inclusive").
// xs need not be sorted; it is not modified. NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// jobSpan is the server's view of one job, taken from its JobStatus —
// when it was admitted, when a worker picked it up, how long the
// simulation ran, when the job turned terminal — and the latency its
// client observed.
type jobSpan struct {
	created, started, finished time.Time
	run, client                time.Duration
}

// queueWait is the time the job sat in the queue before a worker took it.
func (s jobSpan) queueWait() time.Duration { return s.started.Sub(s.created) }

// finishTail is the part of the worker's hold after the simulation itself:
// report encoding and the cache write (memory tier plus the framed,
// fsynced disk file).
func (s jobSpan) finishTail() time.Duration {
	return s.finished.Sub(s.started) - s.run
}

// transport is what the client waited beyond the server's own span:
// request and response transfer, the event-stream round trip and the final
// status fetch.
func (s jobSpan) transport() time.Duration {
	return s.client - s.finished.Sub(s.created)
}

// proxyHop is the median extra latency of a hit through the coordinator
// over a direct hit on the owner node, taken pairwise so that each
// difference compares the same key at nearly the same moment.
func proxyHop(viaCoord, direct []float64) float64 {
	n := min(len(viaCoord), len(direct))
	d := make([]float64, n)
	for i := range d {
		d[i] = viaCoord[i] - direct[i]
	}
	return median(d)
}

// overlap is the sum of cell spans over the wall time they ran in: 1.0
// when cells run one after another, up to the worker count when they fan
// out.
func overlap(cells []float64, wall float64) float64 {
	if wall <= 0 {
		return 0
	}
	return sum(cells) / wall
}
