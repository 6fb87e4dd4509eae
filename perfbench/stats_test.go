package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestJobSpanArithmetic(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := jobSpan{
		created:  t0,
		started:  t0.Add(3 * time.Millisecond),
		finished: t0.Add(50 * time.Millisecond),
		run:      40 * time.Millisecond,
		client:   56 * time.Millisecond,
	}
	if got := s.queueWait(); got != 3*time.Millisecond {
		t.Errorf("queueWait = %v, want 3ms", got)
	}
	if got := s.finishTail(); got != 7*time.Millisecond {
		t.Errorf("finishTail = %v, want 7ms", got)
	}
	if got := s.transport(); got != 6*time.Millisecond {
		t.Errorf("transport = %v, want 6ms", got)
	}
}

func TestProxyHopIsPairwiseMedian(t *testing.T) {
	via := []float64{1.0, 2.0, 1.5, 9.0}
	direct := []float64{0.6, 1.5, 1.2, 0.5}
	// Differences 0.4, 0.5, 0.3, 8.5: the median ignores the outlier.
	if got := proxyHop(via, direct); math.Abs(got-0.45) > 1e-12 {
		t.Errorf("proxyHop = %v, want 0.45", got)
	}
	// Unpaired trailing samples are dropped.
	if got := proxyHop([]float64{2, 3, 4}, []float64{1, 1}); got != 1.5 {
		t.Errorf("proxyHop with a trailing sample = %v, want 1.5", got)
	}
}

func TestOverlap(t *testing.T) {
	if got := overlap([]float64{1, 1, 1}, 3); got != 1 {
		t.Errorf("sequential cells: overlap %v, want 1", got)
	}
	if got := overlap([]float64{2, 2}, 2); got != 2 {
		t.Errorf("two parallel cells: overlap %v, want 2", got)
	}
	if got := overlap(nil, 0); got != 0 {
		t.Errorf("no wall time: overlap %v, want 0", got)
	}
}

func TestStealShare(t *testing.T) {
	from := stealMark{steal: 100, total: 1000, ok: true}
	if got := stealShare(from, stealMark{steal: 150, total: 1200, ok: true}); got != 0.25 {
		t.Errorf("stealShare = %v, want 0.25", got)
	}
	for _, to := range []stealMark{
		{steal: 150, total: 1200},           // unreadable
		{steal: 100, total: 1000, ok: true}, // no time accounted
		{steal: 90, total: 1100, ok: true},  // counter went backwards
	} {
		if got := stealShare(from, to); got != 0 {
			t.Errorf("stealShare(%+v) = %v, want 0", to, got)
		}
	}
	if got := unshared(2*time.Second, 0.25); got != 1.5 {
		t.Errorf("unshared = %v, want 1.5", got)
	}
}
