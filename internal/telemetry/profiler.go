package telemetry

import "mallacc/internal/stats"

// StepProfiler attributes per-call cycles to named fast-path steps (the uop
// step tags: sizeclass, sampling, pushpop, other, callovh). The CPU model
// reports each allocator call's per-step cycle occupancy; the profiler
// accumulates totals and per-call histograms, making the paper's Figure 4
// breakdown observable on every run instead of only in the dedicated
// ablation experiment.
//
// Attribution semantics: a step's cycles for one call are the summed
// execution occupancy (issue to completion, plus any misprediction redirect
// the step's branches caused) of the micro-ops carrying that tag. Steps
// overlap in an out-of-order core, so per-call step cycles can sum to more
// than the call's duration; the numbers answer "how much work did this step
// issue", the same additive question Figure 4 asks.
type StepProfiler struct {
	names  []string
	cycles []uint64
	uops   []uint64
	calls  []uint64 // calls in which the step appeared with nonzero cycles
	hists  []*stats.DurationHist
}

// NewStepProfiler builds a profiler over the given step names, in tag
// order.
func NewStepProfiler(names []string) *StepProfiler {
	p := &StepProfiler{
		names:  append([]string(nil), names...),
		cycles: make([]uint64, len(names)),
		uops:   make([]uint64, len(names)),
		calls:  make([]uint64, len(names)),
		hists:  make([]*stats.DurationHist, len(names)),
	}
	for i := range p.hists {
		p.hists[i] = stats.NewDurationHist()
	}
	return p
}

// ObserveCall records one allocator call's per-step cycle and micro-op
// counts (indexed by step tag). Steps with zero cycles in this call leave
// their histogram untouched so the per-call distributions describe calls
// that actually exercised the step.
func (p *StepProfiler) ObserveCall(cycles, uops []uint64) {
	for i := 0; i < len(p.cycles) && i < len(cycles); i++ {
		p.cycles[i] += cycles[i]
		if i < len(uops) {
			p.uops[i] += uops[i]
		}
		if cycles[i] > 0 {
			p.calls[i]++
			p.hists[i].Add(cycles[i])
		}
	}
}

// Register adds the profiler's metrics to reg under "step.<name>.*":
// cycles and uops counters plus the per-call cycle histogram.
func (p *StepProfiler) Register(reg *Registry) {
	for i, name := range p.names {
		i := i
		reg.Counter("step."+name+".cycles", func() uint64 { return p.cycles[i] })
		reg.Counter("step."+name+".uops", func() uint64 { return p.uops[i] })
		reg.Counter("step."+name+".calls", func() uint64 { return p.calls[i] })
		reg.Histogram("step."+name+".percall", p.hists[i])
	}
}
