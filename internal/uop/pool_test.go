package uop

import (
	"runtime"
	"testing"
)

// TestRecycledSlabCarriesGrowthAcrossRuns pins what the pool is for: a run
// whose emitter grew past 1,000 ops hands that slab to the next run's
// emitter, which then emits the same trace without allocating. Go's append
// grows a slab to capacities such as 852 or 1280 ops, so a pool that only
// kept power-of-two slabs would fail here. The pool may lose an entry to a
// garbage collection, and under the race detector it drops some puts on
// purpose, so the cycle is tried a few times; a pool that never carries a
// slab over fails every attempt.
func TestRecycledSlabCarriesGrowthAcrossRuns(t *testing.T) {
	const ops = 1200
	emit := func(e *Emitter) {
		for i := 0; i < ops; i++ {
			e.ALU(NoDep, NoDep)
		}
	}
	var last uint64
	for attempt := 0; attempt < 20; attempt++ {
		prev := NewEmitter()
		emit(prev)
		prev.Recycle()

		e := NewEmitter()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		emit(e)
		runtime.ReadMemStats(&after)
		if e.Len() != ops {
			t.Fatalf("emitter holds %d ops, want %d", e.Len(), ops)
		}
		e.Recycle()
		if last = after.Mallocs - before.Mallocs; last == 0 {
			return
		}
	}
	t.Fatalf("a fresh emitter after a grown run allocates %d times emitting %d ops, want 0", last, ops)
}

// TestEmitterSteadyStateAllocs pins the pooling contract: once an emitter
// has grown to its working-set size, re-emitting a trace allocates nothing.
func TestEmitterSteadyStateAllocs(t *testing.T) {
	e := NewEmitter()
	defer e.Recycle()
	emit := func() {
		e.Reset()
		for i := 0; i < 200; i++ { // crosses the initial 128-op slab
			e.ALU(NoDep, NoDep)
		}
	}
	emit()
	if allocs := testing.AllocsPerRun(500, emit); allocs != 0 {
		t.Fatalf("steady-state emit allocates %.1f times, want 0", allocs)
	}
}

func TestRecycleThenReuse(t *testing.T) {
	e := NewEmitter()
	for i := 0; i < 300; i++ {
		e.ALU(NoDep, NoDep)
	}
	e.Recycle()
	// A recycled emitter must come back empty and usable.
	e2 := NewEmitter()
	defer e2.Recycle()
	if e2.Len() != 0 {
		t.Fatalf("fresh emitter has %d ops", e2.Len())
	}
	v := e2.ALU(NoDep, NoDep)
	if v != 0 || e2.Len() != 1 {
		t.Fatalf("recycled slab not reset: val=%d len=%d", v, e2.Len())
	}
}
