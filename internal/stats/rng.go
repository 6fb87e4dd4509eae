// Package stats provides the deterministic statistics toolkit used across
// the Mallacc reproduction: seeded random number generation, streaming
// moments, log-bucketed latency histograms, distribution extraction
// (PDF/CDF), and a one-sided Student's t-test used for the full-program
// significance results (Table 2 of the paper).
//
// Everything here is deterministic given a seed so simulation results are
// exactly reproducible run to run.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator based on
// splitmix64 seeding an xoshiro256** state. It intentionally avoids
// math/rand so that the stream is stable across Go releases.
type RNG struct {
	s [4]uint64
	// cached second Gaussian from the Box-Muller pair
	gauss    float64
	hasGauss bool
}

// NewRNG returns a generator seeded from seed via splitmix64, which
// guarantees a well-mixed nonzero state for any seed value.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// NormFloat64 returns a standard normal sample (mean 0, stddev 1) using the
// Box-Muller transform.
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	r.gauss = mag * math.Sin(2*math.Pi*v)
	r.hasGauss = true
	return mag * math.Cos(2*math.Pi*v)
}

// ExpFloat64 returns an exponential sample with mean 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Gaussian returns a normal sample with the given mean and standard
// deviation, clamped to [lo, hi]. The paper's Gaussian microbenchmarks draw
// request sizes from bounded normal distributions.
func (r *RNG) Gaussian(mean, stddev, lo, hi float64) float64 {
	x := mean + stddev*r.NormFloat64()
	if x < lo {
		x = lo
	}
	if x > hi {
		x = hi
	}
	return x
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }

// Fork derives an independent generator from this one; useful for giving
// each simulated thread or workload component its own stream.
func (r *RNG) Fork() *RNG { return NewRNG(r.Uint64()) }
