package workload

import (
	"fmt"
	"sync"
)

// Footprinter is implemented by workloads that model an application
// working set; the driver sizes its between-calls cache touches from it.
type Footprinter interface {
	Footprint() uint64
}

// FootprintOf returns a workload's application working-set size (0 when it
// does not model one). Recorded traces carry their source workload's
// footprint. A footprint above MaxFootprint panics here, before any run
// starts: ReadTrace rejects one from input, so only a workload built in
// code can carry it.
func FootprintOf(w Workload) uint64 {
	var fp uint64
	if t, ok := w.(*Trace); ok {
		fp = t.Footprint
	} else if f, ok := w.(Footprinter); ok {
		fp = f.Footprint()
	}
	if fp > MaxFootprint {
		panic(fmt.Sprintf("workload: %s footprint %d exceeds MaxFootprint (2^43)", w.Name(), fp))
	}
	return fp
}

// Micro returns the six paper microbenchmarks in the order of Figure 4.
func Micro() []Workload {
	return []Workload{
		NewAntagonist(),
		NewGauss(),
		NewGaussFree(),
		NewSizedDeletes(),
		NewTP(),
		NewTPSmall(),
	}
}

// Macro returns the eight macro workloads in the order of Figures 13/14.
func Macro() []Workload {
	return []Workload{
		NewPerlbench(),
		NewTonto(),
		NewOmnetpp(),
		NewXalancbmk(),
		NewMasstreeSame(),
		NewMasstreeWcol1(),
		NewXapianAbstracts(),
		NewXapianPages(),
	}
}

// All returns every stock workload: the paper's micro- and macro-benchmarks
// plus the extension workloads (the server request loop).
func All() []Workload {
	return append(append(Micro(), Macro()...), NewServerRequests())
}

// ByName finds a stock workload by its exact name, constructing a fresh
// instance (generators carry per-run state, so they are never shared).
func ByName(name string) (Workload, bool) {
	if !Known(name) {
		return nil, false
	}
	for _, w := range All() {
		if w.Name() == name {
			return w, true
		}
	}
	return nil, false
}

// stockNames is the cached name set of the stock workloads. Names are
// fixed at compile time, so one construction of the generator list serves
// every lookup — hot paths (spec canonicalization, run-key hashing) call
// Known per request and must not rebuild ~15 generators each time.
var stockNames = sync.OnceValue(func() map[string]bool {
	set := map[string]bool{}
	for _, w := range All() {
		set[w.Name()] = true
	}
	return set
})

// Known reports whether name is a stock workload, without constructing any
// generators.
func Known(name string) bool { return stockNames()[name] }
