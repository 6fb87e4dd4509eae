// Package mallacc is a software reproduction of "Mallacc: Accelerating
// Memory Allocation" (Kanev, Xi, Wei, Brooks — ASPLOS 2017).
//
// The paper proposes a tiny in-core hardware accelerator for the fast path
// of modern size-class memory allocators: a software-managed "malloc
// cache" mapping request sizes to size classes and caching the first two
// free-list elements, five new instructions to drive it (mcszlookup,
// mcszupdate, mchdpop, mchdpush, mcnxtprefetch), and a sampling
// performance counter. This module rebuilds the whole evaluation stack in
// Go: a functionally faithful TCMalloc over a simulated address space, a
// Haswell-like out-of-order timing model with an L1/L2/L3+TLB cache
// simulator, the accelerator itself, the paper's micro- and
// macro-workloads, and one runner per published figure and table.
//
// Three entry points cover most uses:
//
//   - System: an interactive simulated machine — allocate, free, and model
//     application work, getting per-call cycle counts back.
//
//   - Run: execute one workload under one configuration and collect the
//     full measurement set (latency histograms, allocator fractions,
//     accelerator hit rates).
//
//   - RunExperiment: regenerate the paper's figures and tables.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package mallacc

import (
	"fmt"
	"io"

	"mallacc/internal/area"
	"mallacc/internal/cachesim"
	"mallacc/internal/catalog"
	"mallacc/internal/core"
	"mallacc/internal/cpu"
	"mallacc/internal/harness"
	"mallacc/internal/hoard"
	"mallacc/internal/jemalloc"
	"mallacc/internal/multicore"
	"mallacc/internal/simsvc"
	"mallacc/internal/stats"
	"mallacc/internal/tcmalloc"
	"mallacc/internal/telemetry"
	"mallacc/internal/uop"
	"mallacc/internal/workload"
)

// Variant selects the simulated configuration.
type Variant = multicore.Variant

// The evaluated configurations: the paper's three plus the offload-core
// design point from the design-space study.
const (
	// Baseline is unmodified TCMalloc on the stock core.
	Baseline = multicore.Baseline
	// Mallacc runs the accelerated fast path (Figures 10 and 12).
	Mallacc = multicore.Mallacc
	// Limit is the limit study: fast-path step instructions ignored by
	// timing.
	Limit = multicore.Limit
	// Offload dispatches malloc/free over a modeled queue to a dedicated
	// lightweight allocation core (internal/offload).
	Offload = multicore.Offload
)

// Allocator substrates (RunOptions.Backend / JobSpec.Backend).
const (
	// BackendTCMalloc is the default simulated TCMalloc heap.
	BackendTCMalloc = catalog.BackendTCMalloc
	// BackendLockFree is the per-size-class lock-free stack allocator.
	BackendLockFree = catalog.BackendLockFree
)

// RunOptions configures a single workload run.
type RunOptions = harness.Options

// Result is the measurement set one run produces.
type Result = harness.Result

// Workload generates allocator traffic.
type Workload = workload.Workload

// WorkloadConfig parameterizes a custom synthetic application workload.
type WorkloadConfig = workload.MacroConfig

// SizeWeight is one entry of a workload's request-size distribution.
type SizeWeight = workload.SizeWeight

// Report is a rendered experiment outcome.
type Report = harness.Report

// ExpOptions scales experiment runs.
type ExpOptions = harness.ExpOptions

// Run executes one workload under the given options.
func Run(opt RunOptions) *Result { return harness.Run(opt) }

// Workloads returns the paper's six microbenchmarks and eight macro
// workloads.
func Workloads() []Workload { return workload.All() }

// WorkloadByName looks up a stock workload (e.g. "ubench.tp_small",
// "xapian.pages").
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }

// NewWorkload builds a custom synthetic workload from an explicit
// configuration.
func NewWorkload(cfg WorkloadConfig) Workload { return workload.NewMacro(cfg) }

// WorkloadTrace is a recorded, replayable allocation request stream; it
// implements Workload and serializes to a portable text format, so real
// application traces can be brought to the simulator.
type WorkloadTrace = workload.Trace

// RecordTrace captures a workload's exact request stream (no simulation).
func RecordTrace(w Workload, calls int, seed uint64) *WorkloadTrace {
	return workload.RecordOnly(w, calls, stats.NewRNG(seed+1))
}

// ReadTrace parses a serialized trace (see WorkloadTrace.WriteTo).
func ReadTrace(r io.Reader) (*WorkloadTrace, error) { return workload.ReadTrace(r) }

// RunExperiment regenerates one figure or table by ID (e.g. "fig13",
// "table2", "area").
func RunExperiment(id string, opt ExpOptions) (*Report, error) {
	e, ok := harness.ByID(id)
	if !ok {
		return nil, fmt.Errorf("mallacc: unknown experiment %q", id)
	}
	return e.Run(opt), nil
}

// Service is the simulation service: a job queue, a bounded worker pool
// and a content-addressed result cache in front of the simulator. The
// mallacc-serve daemon serves its HTTP API; embedders can run it
// in-process and drive it through Submit/Await or mount Handler on their
// own listener.
type Service = simsvc.Service

// ServiceConfig sizes a Service.
type ServiceConfig = simsvc.Config

// JobSpec fully describes one deterministic simulation job.
type JobSpec = simsvc.JobSpec

// JobStatus is a job's externally visible state.
type JobStatus = simsvc.JobStatus

// NewService builds and starts a simulation service.
func NewService(cfg ServiceConfig) (*Service, error) { return simsvc.New(cfg) }

// Client drives a Service's HTTP API, served by a mallacc-serve daemon or
// relayed by a mallacc-coord fleet: Submit a JobSpec, Wait for the job on
// its event stream, with every call retried under one policy that honors
// the server's Retry-After hints.
type Client = simsvc.Client

// NewClient returns a Client for the API at base ("host:port" or a URL).
func NewClient(base string) *Client { return simsvc.NewClient(base) }

// AreaEstimate returns the Section 6.4 silicon-cost breakdown for a malloc
// cache with the given entry count, in µm² at 28 nm.
func AreaEstimate(entries int) area.Estimate {
	return area.DefaultModel().Estimate(area.DefaultGeometry(entries))
}

// AllocatorKind selects the allocator substrate a System simulates.
type AllocatorKind uint8

const (
	// TCMalloc is the paper's anchor allocator (thread caches of linked
	// free lists, central lists, span page heap).
	TCMalloc AllocatorKind = iota
	// Jemalloc is the jemalloc-style substrate (array-based tcache bins,
	// bitmap slabs), demonstrating the accelerator's generality.
	Jemalloc
	// Hoard is the Hoard-style substrate (per-thread heaps of
	// superblocks with the emptiness invariant); its locked fast path
	// marks the boundary of latency-oriented acceleration.
	Hoard
)

// Config parameterizes an interactive System.
type Config struct {
	// Allocator picks the substrate (default TCMalloc).
	Allocator AllocatorKind
	// Variant picks baseline, Mallacc, or the limit study.
	Variant Variant
	// MCEntries sizes the malloc cache (default 16, the paper's choice).
	MCEntries int
	// IndexModeOff disables the TCMalloc-specific index keying.
	IndexModeOff bool
	// SizedDelete models -fsized-deallocation (default on via
	// DefaultConfig).
	SizedDelete bool
	// SampleInterval is the mean bytes between sampled allocations
	// (0 disables sampling).
	SampleInterval int64
	// Seed makes the system deterministic.
	Seed uint64
}

// DefaultConfig returns a Mallacc-accelerated system with the paper's
// parameters.
func DefaultConfig() Config {
	return Config{
		Variant:        Mallacc,
		MCEntries:      16,
		SizedDelete:    true,
		SampleInterval: tcmalloc.DefaultSampleInterval,
		Seed:           1,
	}
}

// System is an interactive simulated machine: an allocator heap
// (optionally accelerated), a Haswell-like core, and a cache hierarchy.
// Every Malloc and Free returns the call's simulated latency in cycles.
type System struct {
	// TCMalloc backend (nil when Allocator == Jemalloc).
	heap *tcmalloc.Heap
	tc   *tcmalloc.ThreadCache
	// jemalloc backend (nil unless Allocator == Jemalloc).
	jheap *jemalloc.Heap
	jtc   *jemalloc.ThreadCache
	// hoard backend (nil unless Allocator == Hoard).
	hheap *hoard.Heap
	hth   *hoard.ThreadHeap

	em   *uop.Emitter
	core *cpu.Core
	cfg  Config
	reg  *telemetry.Registry
}

// MetricsSnapshot is a point-in-time reading of a system's telemetry
// registry, keyed by dotted metric names ("mc.pop.hits", "l1d.misses",
// "step.pushpop.cycles"). See Snapshot.Get and Value.
type MetricsSnapshot = telemetry.Snapshot

// Metric is one named value of a MetricsSnapshot.
type Metric = telemetry.Metric

// initTelemetry wires the system's registry: step attribution from the
// core's per-call callback, then every layer's counters.
func (s *System) initTelemetry() {
	s.reg = telemetry.NewRegistry()
	prof := telemetry.NewStepProfiler(uop.StepNames())
	prof.Register(s.reg)
	s.core.SetStepObserver(prof.ObserveCall)
	s.core.RegisterMetrics(s.reg)
	s.core.Memory().RegisterMetrics(s.reg)
	switch {
	case s.hheap != nil:
		s.hheap.RegisterMetrics(s.reg)
	case s.jheap != nil:
		s.jheap.RegisterMetrics(s.reg)
	default:
		s.heap.RegisterMetrics(s.reg)
	}
}

// Telemetry returns the system's full metrics snapshot: allocator tiers,
// caches, core, malloc cache, and per-step cycle attribution.
func (s *System) Telemetry() MetricsSnapshot { return s.reg.Snapshot() }

// NewSystem builds a system from cfg.
func NewSystem(cfg Config) *System {
	if cfg.MCEntries <= 0 {
		cfg.MCEntries = 16
	}
	cCfg := cpu.DefaultConfig()
	if cfg.Variant == Limit {
		cCfg.DropSteps[uop.StepSizeClass] = true
		cCfg.DropSteps[uop.StepSampling] = true
		cCfg.DropSteps[uop.StepPushPop] = true
	}
	s := &System{
		core: cpu.New(cCfg, cachesim.NewDefaultHierarchy()),
		cfg:  cfg,
	}
	mcCfg := core.Config{Entries: cfg.MCEntries, IndexMode: !cfg.IndexModeOff}
	if cfg.Allocator == Hoard {
		hCfg := hoard.DefaultConfig()
		hCfg.Seed = cfg.Seed
		hCfg.SampleInterval = cfg.SampleInterval
		if cfg.Variant == Mallacc {
			hCfg.Mode = tcmalloc.ModeMallacc
			hCfg.MallocCache = core.Config{Entries: cfg.MCEntries}
		}
		s.hheap = hoard.New(hCfg)
		s.hth = s.hheap.NewThread()
		s.em = s.hheap.Em
		s.initTelemetry()
		return s
	}
	if cfg.Allocator == Jemalloc {
		jCfg := jemalloc.DefaultConfig()
		jCfg.Seed = cfg.Seed
		jCfg.SampleInterval = cfg.SampleInterval
		if cfg.Variant == Mallacc {
			jCfg.Mode = tcmalloc.ModeMallacc
			// jemalloc has no class-index hardware: generic raw-size keys.
			jCfg.MallocCache = core.Config{Entries: cfg.MCEntries}
		}
		s.jheap = jemalloc.New(jCfg)
		s.jtc = s.jheap.NewThread()
		s.em = s.jheap.Em
		s.initTelemetry()
		return s
	}
	hCfg := tcmalloc.DefaultConfig()
	hCfg.Seed = cfg.Seed
	hCfg.SizedDelete = cfg.SizedDelete
	hCfg.SampleInterval = cfg.SampleInterval
	if cfg.Variant == Mallacc {
		hCfg.Mode = tcmalloc.ModeMallacc
		hCfg.MallocCache = mcCfg
	}
	s.heap = tcmalloc.New(hCfg)
	s.tc = s.heap.NewThread()
	s.em = s.heap.Em
	s.initTelemetry()
	return s
}

// Malloc allocates size bytes, returning the simulated address and the
// call's latency in cycles.
func (s *System) Malloc(size uint64) (addr, cycles uint64) {
	s.em.Reset()
	switch {
	case s.hheap != nil:
		addr = s.hheap.Malloc(s.hth, size)
	case s.jheap != nil:
		addr = s.jheap.Malloc(s.jtc, size)
	default:
		addr = s.heap.Malloc(s.tc, size)
	}
	return addr, s.core.RunTrace(s.em.Trace())
}

// Free releases addr; pass the allocation's requested size as sizeHint for
// sized delete (0 forces the page-map walk). Returns the call's cycles.
func (s *System) Free(addr, sizeHint uint64) (cycles uint64) {
	s.em.Reset()
	switch {
	case s.hheap != nil:
		s.hheap.Free(s.hth, addr, sizeHint)
	case s.jheap != nil:
		s.jheap.Free(s.jtc, addr, sizeHint)
	default:
		s.heap.Free(s.tc, addr, sizeHint)
	}
	return s.core.RunTrace(s.em.Trace())
}

// Calloc allocates size zeroed bytes, charging the memset (TCMalloc
// substrate only).
func (s *System) Calloc(size uint64) (addr, cycles uint64) {
	if s.heap == nil {
		panic("mallacc: Calloc requires the TCMalloc substrate")
	}
	s.em.Reset()
	addr = s.heap.Calloc(s.tc, size)
	return addr, s.core.RunTrace(s.em.Trace())
}

// Realloc resizes an allocation (in place when the size class allows,
// otherwise allocate-copy-free). oldSize is the sized-delete hint
// (TCMalloc substrate only).
func (s *System) Realloc(addr, oldSize, newSize uint64) (newAddr, cycles uint64) {
	if s.heap == nil {
		panic("mallacc: Realloc requires the TCMalloc substrate")
	}
	s.em.Reset()
	newAddr = s.heap.Realloc(s.tc, addr, oldSize, newSize)
	return newAddr, s.core.RunTrace(s.em.Trace())
}

// MallocCacheStats returns accelerator hit/miss counts (zero value when
// running the baseline).
func (s *System) MallocCacheStats() core.Stats {
	switch {
	case s.hheap != nil:
		if s.hheap.MC == nil {
			return core.Stats{}
		}
		return s.hheap.MC.Stats
	case s.jheap != nil:
		if s.jheap.MC == nil {
			return core.Stats{}
		}
		return s.jheap.MC.Stats
	default:
		if s.heap.MC == nil {
			return core.Stats{}
		}
		return s.heap.MC.Stats
	}
}

// CheckInvariants panics if any allocator invariant is violated; useful in
// tests of code built on top of the System API.
func (s *System) CheckInvariants() {
	switch {
	case s.hheap != nil:
		s.hheap.CheckInvariants()
	case s.jheap != nil:
		s.jheap.CheckInvariants()
	default:
		s.heap.CheckInvariants()
	}
}

// RNG is the deterministic generator custom Workloads receive, one per
// core.
type RNG = stats.RNG

// App is what a Workload sees of one simulated core: allocator entry points
// plus hooks to model the application in between. In a multi-core run (a
// cluster JobSpec) each core's shard drives its own App.
type App = workload.App

// SizeClassInfo describes one allocator size class.
type SizeClassInfo struct {
	// Class is the class number (1-based; class 0 is reserved).
	Class int
	// Size is the rounded allocation size in bytes.
	Size uint64
	// SpanPages is the span length used to refill the class.
	SpanPages uint64
	// BatchSize is the central/thread transfer batch.
	BatchSize int
}

// SizeClasses returns the allocator's generated size-class table — the
// same table the paper's Figure 5 machinery indexes into.
func SizeClasses() []SizeClassInfo {
	h := tcmalloc.New(tcmalloc.DefaultConfig())
	sm := h.SizeMap
	out := make([]SizeClassInfo, 0, sm.NumClasses()-1)
	for c := 1; c < sm.NumClasses(); c++ {
		out = append(out, SizeClassInfo{
			Class:     c,
			Size:      sm.ClassSize(uint8(c)),
			SpanPages: sm.ClassPages(uint8(c)),
			BatchSize: sm.NumToMove(uint8(c)),
		})
	}
	return out
}

// SizeClassOf returns the class info a request of the given size maps to,
// and ok=false for large (>256 KiB) requests that bypass the classes.
func SizeClassOf(size uint64) (SizeClassInfo, bool) {
	h := tcmalloc.New(tcmalloc.DefaultConfig())
	c, rounded, ok := h.SizeMap.ClassFor(size)
	if !ok {
		return SizeClassInfo{}, false
	}
	return SizeClassInfo{
		Class:     int(c),
		Size:      rounded,
		SpanPages: h.SizeMap.ClassPages(c),
		BatchSize: h.SizeMap.NumToMove(c),
	}, true
}

// ClassIndex exposes the paper's Figure 5 index computation.
func ClassIndex(size uint64) uint64 { return tcmalloc.ClassIndex(size) }
