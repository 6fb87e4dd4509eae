// Package harness wires the pieces of the reproduction together: it runs a
// workload against an allocator configuration (baseline, Mallacc, or the
// limit study) on one simulated core, collects the statistics every figure
// and table of the paper is built from, and provides one experiment runner
// per figure/table (experiments.go).
package harness

import (
	"mallacc/internal/multicore"
	"mallacc/internal/progress"
	"mallacc/internal/workload"
)

// Options configures one single-core simulation run.
type Options struct {
	Workload workload.Workload
	Variant  multicore.Variant
	// Backend selects the allocator substrate: "" or "tcmalloc" runs the
	// default heap, "lockfree" the per-class lock-free stack backend. The
	// (backend, variant) pair is validated against internal/catalog.
	Backend string
	// MCEntries sizes the malloc cache (default 32, the paper's headline
	// configuration; Fig. 17 sweeps it and Sec. 6.2 settles on 16).
	MCEntries int
	// Calls is the allocator-call budget (default 50000).
	Calls int
	// Seed drives all randomness in the run.
	Seed uint64
	// CoreConfig holds the core's timing, malloc-cache design and thread
	// rotation knobs.
	multicore.CoreConfig

	// Progress, when set, receives periodic execution snapshots plus one
	// final Done snapshot. The cadence is ProgressEvery simulated cycles
	// (progress.DefaultEvery when 0) on the core's logical clock, so the
	// snapshot stream is a pure function of the run's options — identical
	// seed and spec publish identical events. Observability only: it never
	// changes simulation results.
	Progress      progress.Reporter
	ProgressEvery uint64
}

// Result is everything a single-core run produces.
type Result = multicore.SoloResult

// Config lowers opt to the engine configuration of its one core.
func (opt Options) Config() multicore.Config {
	calls := opt.Calls
	if calls <= 0 {
		calls = 50000
	}
	return multicore.Config{
		Cores:         1,
		Variant:       opt.Variant,
		Backend:       opt.Backend,
		MCEntries:     opt.MCEntries,
		Workload:      opt.Workload,
		CallsPerCore:  calls,
		Seed:          opt.Seed,
		Core:          opt.CoreConfig,
		Progress:      opt.Progress,
		ProgressEvery: opt.ProgressEvery,
	}
}

// Run executes a workload under the given options on one simulated core and
// returns the collected result.
func Run(opt Options) *Result { return multicore.RunSolo(opt.Config(), nil) }
