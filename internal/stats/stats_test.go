package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(7)
	const n = 200000
	var buckets [10]int
	for i := 0; i < n; i++ {
		buckets[int(r.Float64()*10)]++
	}
	for i, b := range buckets {
		frac := float64(b) / n
		if frac < 0.09 || frac > 0.11 {
			t.Errorf("bucket %d has fraction %.4f, want ~0.1", i, frac)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Add(r.NormFloat64())
	}
	if math.Abs(w.Mean()) > 0.02 {
		t.Errorf("normal mean %.4f, want ~0", w.Mean())
	}
	if math.Abs(w.StdDev()-1) > 0.02 {
		t.Errorf("normal stddev %.4f, want ~1", w.StdDev())
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(13)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Add(r.ExpFloat64())
	}
	if math.Abs(w.Mean()-1) > 0.02 {
		t.Errorf("exponential mean %.4f, want ~1", w.Mean())
	}
}

func TestGaussianClamped(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 10000; i++ {
		x := r.Gaussian(50, 30, 16, 64)
		if x < 16 || x > 64 {
			t.Fatalf("Gaussian out of [16,64]: %v", x)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestWelfordMatchesDirect(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	mean := MeanOf(xs)
	if math.Abs(w.Mean()-mean) > 1e-12 {
		t.Errorf("mean %.12f != %.12f", w.Mean(), mean)
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	direct := ss / float64(len(xs)-1)
	if math.Abs(w.Variance()-direct) > 1e-12 {
		t.Errorf("variance %.12f != %.12f", w.Variance(), direct)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v, want 4", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", g)
	}
}

func TestBucketIndexMonotoneProperty(t *testing.T) {
	// Property: bucketIndex is monotone and bucketBounds contains the
	// value.
	f := func(d uint64) bool {
		d %= 1 << 40
		i := bucketIndex(d)
		lo, hi := bucketBounds(i)
		if d < lo || d >= hi {
			return false
		}
		return bucketIndex(hi) > i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestHistogramAccounting(t *testing.T) {
	h := NewDurationHist()
	durations := []uint64{1, 5, 20, 20, 100, 3000, 100000}
	var total uint64
	for _, d := range durations {
		h.Add(d)
		total += d
	}
	if h.N() != uint64(len(durations)) {
		t.Fatalf("N = %d", h.N())
	}
	if h.TotalCycles() != total {
		t.Fatalf("total = %d, want %d", h.TotalCycles(), total)
	}
	var sumPct float64
	for _, b := range h.Buckets() {
		sumPct += b.TimePct
	}
	if math.Abs(sumPct-100) > 1e-9 {
		t.Fatalf("bucket time percentages sum to %v", sumPct)
	}
	if cdf := h.TimeCDFBelow(1 << 40); math.Abs(cdf-100) > 1e-9 {
		t.Fatalf("CDF below infinity = %v", cdf)
	}
	if cdf := h.TimeCDFBelow(2); cdf != float64(1*100)/float64(total) {
		t.Fatalf("CDF below 2 = %v", cdf)
	}
}

func TestHistogramMedianAndMean(t *testing.T) {
	h := NewDurationHist()
	for i := 0; i < 1000; i++ {
		h.Add(20)
	}
	m := h.MedianCycles()
	if m < 18 || m > 23 {
		t.Errorf("median of constant-20 histogram: %v", m)
	}
	for i := 0; i < 1000; i++ {
		h.Add(40)
	}
	if h.N() != 2000 {
		t.Fatalf("N = %d", h.N())
	}
	if h.MeanCycles() != 30 {
		t.Fatalf("mean = %v", h.MeanCycles())
	}
}

func TestStudentTCDFKnownValues(t *testing.T) {
	// Symmetry and standard quantiles.
	if p := StudentTCDF(0, 10); math.Abs(p-0.5) > 1e-9 {
		t.Errorf("CDF(0) = %v", p)
	}
	// t=1.812 at df=10 is the 95th percentile.
	if p := StudentTCDF(1.812, 10); math.Abs(p-0.95) > 0.002 {
		t.Errorf("CDF(1.812, 10) = %v, want ~0.95", p)
	}
	// Large df approaches the normal: t=1.96 -> ~0.975.
	if p := StudentTCDF(1.96, 10000); math.Abs(p-0.975) > 0.002 {
		t.Errorf("CDF(1.96, 10000) = %v, want ~0.975", p)
	}
	for _, tv := range []float64{-3, -1, 0.5, 2.7} {
		if s := StudentTCDF(tv, 7) + StudentTCDF(-tv, 7); math.Abs(s-1) > 1e-9 {
			t.Errorf("CDF symmetry violated at t=%v: %v", tv, s)
		}
	}
}

func TestRegIncBetaComplementProperty(t *testing.T) {
	// Property: I_x(a,b) + I_{1-x}(b,a) == 1.
	f := func(ai, bi uint8, xi uint16) bool {
		a := 0.5 + float64(ai%40)
		b := 0.5 + float64(bi%40)
		x := float64(xi%1000) / 1000
		s := RegIncBeta(a, b, x) + RegIncBeta(b, a, 1-x)
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestOneSidedPairedT(t *testing.T) {
	a := []float64{105, 110, 99, 108, 103, 107}
	b := []float64{104, 108, 98, 106, 102, 105}
	res := OneSidedPairedT(a, b, 0.05)
	if !res.Significant {
		t.Errorf("consistent paired improvement not significant: p=%v", res.P)
	}
	rev := OneSidedPairedT(b, a, 0.05)
	if rev.Significant {
		t.Errorf("reversed pairing must not be significant: p=%v", rev.P)
	}
	zero := OneSidedPairedT([]float64{1, 1, 1}, []float64{1, 1, 1}, 0.05)
	if zero.Significant || zero.P != 1 {
		t.Errorf("no-difference case: p=%v sig=%v", zero.P, zero.Significant)
	}
}

func TestPercentileCycles(t *testing.T) {
	h := NewDurationHist()
	for d := uint64(1); d <= 100; d++ {
		h.Add(d)
	}
	p50 := h.PercentileCycles(50)
	if p50 < 40 || p50 > 60 {
		t.Errorf("p50 of 1..100 = %v", p50)
	}
	p99 := h.PercentileCycles(99)
	if p99 < 90 || p99 > 110 {
		t.Errorf("p99 of 1..100 = %v", p99)
	}
	if h.PercentileCycles(0) > h.PercentileCycles(100) {
		t.Error("percentiles not monotone")
	}
}
