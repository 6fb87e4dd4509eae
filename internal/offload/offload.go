// Package offload models a SpeedMalloc-style accelerator variant
// (arXiv:2508.20253): instead of accelerating the allocator *inside* each
// application core (Mallacc's malloc cache), malloc and free requests are
// dispatched over a hardware queue to one dedicated lightweight allocation
// core that owns the entire allocator.
//
// Cost model:
//
//   - The allocation core is a narrow in-order-ish cpu.Core (2-wide, small
//     ROB) running the real TCMalloc substrate with its own cache
//     hierarchy. Because every malloc and free from every requester runs
//     there, the allocator's metadata — thread cache, size map, central
//     lists — stays resident in that core's caches: the locality argument
//     is modeled, not asserted.
//   - A malloc is synchronous for the requester: marshal the request
//     (rides StepCallOverhead — no new uop step tag exists, by design),
//     send it (sendCycles), wait for the queue to drain to it and the
//     allocation core to service it, then a response hop back
//     (sendCycles) and a load of the returned pointer. The wait is
//     emitted as a Stall in the requester's trace, so the round trip
//     lands in the requester's malloc-latency histograms like any other
//     allocator cost.
//   - A free is asynchronous fire-and-forget: the requester pays only the
//     marshal+send, while the allocation core's clock still advances by
//     the service time — back-to-back frees from many cores queue up and
//     delay subsequent mallocs. That asymmetry (cheap frees, mallocs that
//     saturate) is the design's signature and shows up directly in the
//     designspace experiment at high core counts.
//
// Determinism: the engine runs on logical clocks — requests carry the
// requester's cycle, the allocation core's availability is a single
// monotone `freeAt` horizon, and queue occupancy is a sorted FIFO of
// finish times — so results are a pure function of the call sequence,
// which the multicore engine's token-passing scheduler already makes
// deterministic.
package offload

import (
	"mallacc/internal/cpu"
	"mallacc/internal/tcmalloc"
	"mallacc/internal/telemetry"
	"mallacc/internal/uop"
)

// sendCycles is the one-way interconnect cost of a request or response hop
// between a requester core and the allocation core, matching the engine's
// remote-free posting cost. (The requester side emits no branches, so
// offload claims no predictor site range; the allocation core replays
// tcmalloc's own sites on its private predictor.)
const sendCycles = 20

// doorbellAddr is the queue-port address the requester's marshal stores
// and response loads touch; one hot line in the requester's cache.
const doorbellAddr = 64

// Config parameterizes the offload engine.
type Config struct {
	// Heap configures the TCMalloc substrate the allocation core owns.
	// Mode is forced to baseline: the point of the design is that no
	// in-core accelerator hardware is needed.
	Heap tcmalloc.Config
	// Core configures the allocation core; zero value = LightCoreConfig.
	Core cpu.Config
	Seed uint64
}

// LightCoreConfig is the lightweight allocation core: 2-wide with a small
// window, roughly a little in-order edge core next to the big ones.
func LightCoreConfig() cpu.Config {
	cfg := cpu.DefaultConfig()
	cfg.FetchWidth = 2
	cfg.IssueWidth = 2
	cfg.CommitWidth = 2
	cfg.ROBSize = 32
	cfg.LoadPorts = 1
	cfg.StorePorts = 1
	cfg.ALUPorts = 2
	cfg.BranchPorts = 1
	return cfg
}

// DefaultConfig returns the standard offload configuration.
func DefaultConfig() Config {
	hc := tcmalloc.DefaultConfig()
	return Config{Heap: hc, Core: LightCoreConfig(), Seed: 1}
}

// Stats counts engine events and cycle totals.
type Stats struct {
	Mallocs uint64
	Frees   uint64
	// QueueWaitCycles is the total time requests sat behind earlier work
	// (malloc requests only; frees never wait on the requester side).
	QueueWaitCycles uint64
	// ServiceCycles is the total allocation-core execution time.
	ServiceCycles uint64
	// RoundTripCycles is the total requester-visible malloc latency
	// (send + wait + service + response).
	RoundTripCycles uint64
	// DepthSum accumulates queue depth observed at each malloc arrival;
	// DepthSum/Mallocs is the mean occupancy.
	DepthSum uint64
	MaxDepth uint64
}

// Engine is the dedicated allocation core plus its request queue.
type Engine struct {
	Heap *tcmalloc.Heap
	// TC is the single thread cache: every request from every core is
	// serviced by the same cache, which is exactly the locality win.
	TC    *tcmalloc.ThreadCache
	Core  *cpu.Core
	Stats Stats

	// freeAt is the allocation core's logical availability horizon.
	freeAt uint64
	// pending holds finish times of in-flight requests, ascending.
	pending []uint64
}

// New builds an offload engine.
func New(cfg Config) *Engine {
	cfg.Heap.Mode = tcmalloc.ModeBaseline
	if cfg.Heap.Seed == 0 {
		cfg.Heap.Seed = cfg.Seed
	}
	zero := cpu.Config{}
	if cfg.Core == zero {
		cfg.Core = LightCoreConfig()
	}
	eng := &Engine{Heap: tcmalloc.New(cfg.Heap)}
	eng.TC = eng.Heap.NewThread()
	eng.Core = cpu.Acquire(cfg.Core)
	return eng
}

// drainTo pops finished requests and returns the queue depth seen by a
// request arriving at cycle `arrive`.
func (eng *Engine) drainTo(arrive uint64) uint64 {
	i := 0
	for i < len(eng.pending) && eng.pending[i] <= arrive {
		i++
	}
	if i > 0 {
		eng.pending = append(eng.pending[:0], eng.pending[i:]...)
	}
	return uint64(len(eng.pending))
}

// Malloc dispatches an allocation of size bytes issued at requester cycle
// reqNow, emitting the requester-side cost into e and returning the
// payload address. The allocation core's trace runs on its own core; only
// the resulting latency reaches the requester, as a Stall.
func (eng *Engine) Malloc(e *uop.Emitter, reqNow uint64, size uint64) uint64 {
	eng.Stats.Mallocs++

	// Requester side: marshal size + request slot, post to the queue.
	// This is call overhead by construction — the whole allocator moved
	// off-core, so overhead is all that remains here.
	prev := e.Step(uop.StepCallOverhead)
	sz := e.ALU(uop.NoDep, uop.NoDep)
	slot := e.ALU(sz, uop.NoDep)
	post := e.Store(doorbellAddr, slot, sz)

	// Engine side, on logical clocks.
	arrive := reqNow + sendCycles
	depth := eng.drainTo(arrive)
	eng.Stats.DepthSum += depth
	if depth > eng.Stats.MaxDepth {
		eng.Stats.MaxDepth = depth
	}
	start := arrive
	if eng.freeAt > start {
		start = eng.freeAt
	}
	wait := start - arrive
	eng.Stats.QueueWaitCycles += wait

	h := eng.Heap
	h.Em.Reset()
	ptr := h.Malloc(eng.TC, size)
	service := eng.Core.RunTrace(h.Em.Trace())
	eng.Stats.ServiceCycles += service
	eng.freeAt = start + service
	eng.pending = append(eng.pending, eng.freeAt)

	// Requester side: stall until the response hop lands, then load it.
	total := sendCycles + wait + service + sendCycles
	eng.Stats.RoundTripCycles += total
	stall := e.Stall(total, post)
	e.Load(doorbellAddr, stall)
	e.Step(prev)
	return ptr
}

// Free dispatches a deallocation fire-and-forget: the requester pays only
// marshal+post, the allocation core absorbs the service time later.
func (eng *Engine) Free(e *uop.Emitter, reqNow uint64, ptr, size uint64) {
	eng.Stats.Frees++

	prev := e.Step(uop.StepCallOverhead)
	p := e.ALU(uop.NoDep, uop.NoDep)
	e.Store(doorbellAddr, p, p)
	e.Step(prev)

	arrive := reqNow + sendCycles
	eng.drainTo(arrive)
	start := arrive
	if eng.freeAt > start {
		start = eng.freeAt
	}

	h := eng.Heap
	h.Em.Reset()
	h.Free(eng.TC, ptr, size)
	service := eng.Core.RunTrace(h.Em.Trace())
	eng.Stats.ServiceCycles += service
	eng.freeAt = start + service
	eng.pending = append(eng.pending, eng.freeAt)
}

// RegisterMetrics adds the engine's counters to reg under "offload.*" with
// OpenMetrics help text, plus the allocation core's own cpu/cache metrics
// under "alloccore.*" and the owned heap's allocator tiers.
func (eng *Engine) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("offload.mallocs", func() uint64 { return eng.Stats.Mallocs })
	reg.Describe("offload.mallocs", "Malloc requests dispatched to the allocation core.")
	reg.Counter("offload.frees", func() uint64 { return eng.Stats.Frees })
	reg.Describe("offload.frees", "Free requests posted fire-and-forget to the allocation core.")
	reg.Counter("offload.queue.wait_cycles", func() uint64 { return eng.Stats.QueueWaitCycles })
	reg.Describe("offload.queue.wait_cycles", "Cycles malloc requests waited behind earlier work in the queue.")
	reg.Counter("offload.service_cycles", func() uint64 { return eng.Stats.ServiceCycles })
	reg.Describe("offload.service_cycles", "Allocation-core execution cycles across all requests.")
	reg.Counter("offload.roundtrip_cycles", func() uint64 { return eng.Stats.RoundTripCycles })
	reg.Describe("offload.roundtrip_cycles", "Requester-visible malloc cycles (send + wait + service + response).")
	reg.Gauge("offload.queue.mean_depth", func() float64 {
		if eng.Stats.Mallocs == 0 {
			return 0
		}
		return float64(eng.Stats.DepthSum) / float64(eng.Stats.Mallocs)
	})
	reg.Describe("offload.queue.mean_depth", "Mean request-queue depth observed at malloc arrival.")
	reg.Gauge("offload.queue.max_depth", func() float64 { return float64(eng.Stats.MaxDepth) })
	reg.Describe("offload.queue.max_depth", "Peak request-queue depth observed at malloc arrival.")
}
