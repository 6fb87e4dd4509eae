package workload

import (
	"fmt"
	"sync"

	"mallacc/internal/mem"
	"mallacc/internal/stats"
)

// Footprinter is implemented by workloads that model an application
// working set; the drivers size their between-calls cache touches from it
// (Toucher).
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

// footprintBase is the address of a workload's first working-set line, far
// above every allocator address; MaxFootprint keeps the last one below
// 2^44.
const footprintBase = uint64(1) << 40

// Toucher draws the cache lines an App's Work call touches: lines of the
// workload's application working set (FootprintOf), chosen uniformly at
// random. The zero Toucher touches nothing.
type Toucher struct {
	lines uint64
	buf   []uint64
}

// NewToucher sizes a Toucher for w's working set.
func NewToucher(w Workload) Toucher {
	return Toucher{lines: FootprintOf(w) / mem.CacheLineSize}
}

// Touch returns the addresses of n working-set lines, drawing one value
// from rng per line, or nil (drawing nothing) when the workload models no
// working set or n is not positive. The slice is reused by the next call.
func (t *Toucher) Touch(rng *stats.RNG, n int) []uint64 {
	if t.lines == 0 || n <= 0 {
		return nil
	}
	if cap(t.buf) < n {
		t.buf = make([]uint64, n)
	}
	buf := t.buf[:n]
	for i := range buf {
		buf[i] = footprintBase + rng.Uint64n(t.lines)*mem.CacheLineSize
	}
	return buf
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
