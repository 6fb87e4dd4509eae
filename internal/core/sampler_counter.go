package core

// SampleCounter models the dedicated sampling performance counter of
// Section 4.2. Instead of the software sampler's load/decrement/
// compare/branch/store sequence on every allocation, the hardware counter
// accumulates the requested allocation size (it "increments by the value
// of a register") and raises a PMU interrupt when the accumulated bytes
// cross the sampling threshold; the stack-trace capture then happens on the
// interrupt path, entirely off the fast path.
type SampleCounter struct {
	// remaining counts down bytes until the next sample.
	remaining int64
	// armed reports whether sampling is enabled at all.
	armed bool
	// Interrupts counts threshold crossings (i.e. sampled allocations).
	Interrupts uint64
	// BytesAccumulated counts everything added.
	BytesAccumulated uint64
}

// Arm enables the counter with the given byte threshold until the next
// interrupt. The allocator re-arms with a fresh (exponentially drawn)
// threshold after each sample, exactly as the software sampler does.
func (c *SampleCounter) Arm(threshold int64) {
	c.remaining = threshold
	c.armed = true
}

// Armed reports whether the counter is active.
func (c *SampleCounter) Armed() bool { return c.armed }

// Add accumulates one allocation of size bytes and reports whether the PMU
// interrupt fired (the allocation should be sampled). Once fired, the
// counter disarms until re-armed.
func (c *SampleCounter) Add(size uint64) bool {
	if !c.armed {
		return false
	}
	c.BytesAccumulated += size
	c.remaining -= int64(size)
	if c.remaining <= 0 {
		c.armed = false
		c.Interrupts++
		return true
	}
	return false
}
