package tcmalloc

import "mallacc/internal/stats"

// DefaultSampleInterval is the mean byte interval between sampled
// allocations (gperftools' default tcmalloc_sample_parameter: 512 KiB).
const DefaultSampleInterval = 512 << 10

// Sampler is the per-thread byte-interval sampler: it draws the gap to the
// next sample from an exponential distribution so sampling is unbiased with
// respect to allocation size. In the baseline this is the "counter must be
// decremented and checked against the threshold each time" cost on the fast
// path (Sec. 3.3); with Mallacc the same draw arms the hardware counter.
type Sampler struct {
	rng         *stats.RNG
	mean        float64
	until       int64 // bytes until next sample
	Samples     uint64
	counterAddr uint64 // simulated address of the software counter word
}

// NewSampler creates a sampler with the given mean interval in bytes (0
// disables sampling) and the simulated address of its counter.
func NewSampler(rng *stats.RNG, meanBytes int64, counterAddr uint64) *Sampler {
	s := &Sampler{rng: rng, mean: float64(meanBytes), counterAddr: counterAddr}
	if meanBytes > 0 {
		s.until = s.draw()
	}
	return s
}

// Enabled reports whether sampling is active.
func (s *Sampler) Enabled() bool { return s.mean > 0 }

// CounterAddr is the simulated address the software fast path loads and
// stores.
func (s *Sampler) CounterAddr() uint64 { return s.counterAddr }

func (s *Sampler) draw() int64 {
	v := int64(s.mean * s.rng.ExpFloat64())
	if v < 1 {
		v = 1
	}
	return v
}

// Account subtracts size from the countdown and reports whether this
// allocation is sampled, re-arming the countdown if so.
func (s *Sampler) Account(size uint64) bool {
	if !s.Enabled() {
		return false
	}
	s.until -= int64(size)
	if s.until > 0 {
		return false
	}
	s.until = s.draw()
	s.Samples++
	return true
}
