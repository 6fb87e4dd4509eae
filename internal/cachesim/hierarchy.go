package cachesim

import (
	"strings"

	"mallacc/internal/telemetry"
)

// HierarchyConfig sizes the full data-side hierarchy. Defaults follow the
// Haswell configuration the paper simulates with XIOSim.
type HierarchyConfig struct {
	L1D, L2, L3 Config
	DTLB        Config
	// MemLatency is the DRAM access latency in cycles.
	MemLatency uint64
	// TLBWalkLatency is the page-walk penalty added on a dTLB miss.
	TLBWalkLatency uint64
}

// DefaultHierarchyConfig returns the Haswell-like defaults: 32 KiB/8-way
// L1D at 4 cycles, 256 KiB/8-way L2 at 12 cycles, 8 MiB/16-way L3 at 36
// cycles (the paper quotes 34 for Haswell), 200-cycle DRAM, and a 64-entry
// 4-way dTLB over 4 KiB pages with a 30-cycle walk.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1D:            Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LineShift: 6, Latency: 4},
		L2:             Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, LineShift: 6, Latency: 12},
		L3:             Config{Name: "L3", SizeBytes: 8 << 20, Ways: 16, LineShift: 6, Latency: 36},
		DTLB:           Config{Name: "dTLB", SizeBytes: 64 << 12, Ways: 4, LineShift: 12, Latency: 0}, // 64 entries over 4 KiB pages
		MemLatency:     200,
		TLBWalkLatency: 30,
	}
}

// Hierarchy is the inclusive three-level data cache plus dTLB.
type Hierarchy struct {
	L1D, L2, L3 *Cache
	DTLB        *Cache
	cfg         HierarchyConfig
}

// NewHierarchy builds the hierarchy from cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		L1D:  New(cfg.L1D),
		L2:   New(cfg.L2),
		L3:   New(cfg.L3),
		DTLB: New(cfg.DTLB),
		cfg:  cfg,
	}
}

// NewDefaultHierarchy builds the Haswell-like hierarchy.
func NewDefaultHierarchy() *Hierarchy { return NewHierarchy(DefaultHierarchyConfig()) }

// Reset empties every level and zeroes its Stats, leaving the hierarchy
// as NewHierarchy built it. Only the per-set counts are cleared: a set's
// slots past its count are never read, so the stale tags behind them need
// no clearing. For the defaults that clears 34 KiB of counts where
// building a new hierarchy allocates 565 KiB.
func (h *Hierarchy) Reset() {
	for _, c := range []*Cache{h.L1D, h.L2, h.L3, h.DTLB} {
		clear(c.n)
		c.Stats = Stats{}
	}
}

// Load accesses addr and returns the latency in cycles, updating all cache
// state. Each level is probed and, on a miss, filled in one scan before
// the next level is tried; after an L3 fill, the L3 victim is
// back-invalidated in L2 and L1D (the hierarchy is inclusive).
func (h *Hierarchy) Load(addr uint64) uint64 {
	// Most loads (two thirds in fig13) touch the most recent line of their
	// L1D set on the most recent page of their dTLB set, where both
	// accesses would only count a hit.
	if h.L1D.mru(addr) && h.DTLB.mru(addr) {
		h.DTLB.Stats.Hits++
		h.L1D.Stats.Hits++
		return h.L1D.cfg.Latency
	}
	var lat uint64
	if hit, _, _ := h.DTLB.access(addr); !hit {
		lat = h.cfg.TLBWalkLatency
	}
	if hit, _, _ := h.L1D.access(addr); hit {
		return lat + h.L1D.cfg.Latency
	}
	if hit, _, _ := h.L2.access(addr); hit {
		return lat + h.L2.cfg.Latency
	}
	hit, evicted, wasEvicted := h.L3.access(addr)
	if hit {
		return lat + h.L3.cfg.Latency
	}
	if wasEvicted {
		// Line numbers differ per level only if line sizes differ; all
		// levels use 64-byte lines here.
		h.L2.InvalidateLine(evicted)
		h.L1D.InvalidateLine(evicted)
	}
	return lat + h.cfg.MemLatency
}

// Store performs a write-allocate access; the returned latency is the time
// to ownership, though the core's senior store queue hides it from commit.
func (h *Hierarchy) Store(addr uint64) uint64 { return h.Load(addr) }

// Prefetch fetches addr like a load and returns the time until data is
// available.
func (h *Hierarchy) Prefetch(addr uint64) uint64 { return h.Load(addr) }

// Touch simulates an application access for cache-pressure purposes without
// caring about latency.
func (h *Hierarchy) Touch(addr uint64) { h.Load(addr) }

// RegisterMetrics adds every level's hit/miss counters and miss-rate gauge
// to reg, prefixed by the lowercased level name ("l1d.hits", "dtlb.miss_rate").
func (h *Hierarchy) RegisterMetrics(reg *telemetry.Registry) {
	for _, c := range []*Cache{h.L1D, h.L2, h.L3, h.DTLB} {
		c := c
		p := strings.ToLower(c.cfg.Name)
		reg.Counter(p+".hits", func() uint64 { return c.Stats.Hits })
		reg.Counter(p+".misses", func() uint64 { return c.Stats.Misses })
		reg.Gauge(p+".miss_rate", func() float64 { return c.Stats.MissRate() })
	}
}

// Antagonize evicts the LRU half of each L1D and L2 set, emulating a
// cache-hungry application region between allocator calls.
func (h *Hierarchy) Antagonize() {
	h.L1D.EvictLRUHalf()
	h.L2.EvictLRUHalf()
}
