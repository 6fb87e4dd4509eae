package core

// SampleCounter models the dedicated sampling performance counter of
// Section 4.2. Instead of the software sampler's load/decrement/
// compare/branch/store sequence on every allocation, the hardware counter
// accumulates the requested allocation size (it "increments by the value
// of a register") and raises a PMU interrupt when the accumulated bytes
// cross the sampling threshold; the stack-trace capture then happens on the
// interrupt path, entirely off the fast path. The allocators mirror their
// software sampler's countdown, so only the counter's statistics live here.
type SampleCounter struct {
	// Interrupts counts threshold crossings (i.e. sampled allocations).
	Interrupts uint64
	// BytesAccumulated counts everything added.
	BytesAccumulated uint64
}
