package stats

import "math"

// Welford accumulates streaming mean and variance using Welford's online
// algorithm, which is numerically stable for long runs.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running mean (0 if no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// MeanOf returns the arithmetic mean of xs (0 for an empty slice).
func MeanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDevOf returns the sample standard deviation of xs.
func StdDevOf(xs []float64) float64 {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.StdDev()
}

// GeoMean returns the geometric mean of xs, which must all be positive.
// It is used for the "Geomean" rows of Figures 13 and 14.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic("stats: GeoMean of non-positive value")
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
