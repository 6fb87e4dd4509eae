package cachesim

// This file keeps frozen copies of the cache and the hierarchy as they were
// before each set was kept in recency order, as executable reference
// models:
//
//   - refCache keeps 16-byte ways with a full 64-bit line number as the tag
//     and a 64-bit LRU stamp from a clock that never wraps; the victim is an
//     invalid way if one exists, else the set's minimum stamp.
//   - refHierarchy's Load probes each level with Lookup and fills the
//     missed levels afterwards with separate Insert calls, back-invalidating
//     the L3 victim in L2 and L1D last.
//
// The lockstep tests in cachesim_test.go drive them and the production
// Cache and Hierarchy with identical operation streams and demand identical
// answers, which is what licenses the recency-ordered sets and the one-scan
// cascade to claim byte-identical pinned metrics. The reference's Flush
// went with the production one (no simulation path flushed the data
// caches), so its epoch watermark now stays 0.
//
// Do not "optimize" this file: its value is that it is structurally the old
// implementation.

import "fmt"

// refWay is one cache line's metadata. A line is valid iff stamp > the
// cache's epoch watermark: the LRU clock pre-increments before every stamp
// write, so live lines always carry a stamp above the epoch they were
// written in, and whole-cache invalidation (Flush) is O(1) — raise
// the epoch to the current clock and every line goes stale at once.
// Single-line invalidation zeroes the stamp (0 is never above any epoch).
// Packing tag and stamp into one 16-byte struct (instead of the former
// parallel tags/valid/stamp slices) makes a way probe touch one cache line
// instead of three — Lookup and Insert are the hottest leaves of the
// timing model.
type refWay struct {
	tag   uint64 // line number (addr >> LineShift); garbage while stale
	stamp uint64 // LRU stamp; valid iff > the cache epoch
}

// refCache is the 16-byte-way Cache: full 64-bit line numbers as tags and
// a 64-bit clock that never wraps.
type refCache struct {
	ways    []refWay // sets*cfg.Ways
	shift   uint     // cfg.LineShift
	setMask uint64   // sets - 1
	nw      int      // cfg.Ways
	clock   uint64
	// epoch is the invalidation watermark: lines stamped at or below it are
	// stale. The clock never rewinds (it survives Flush), so stamp order —
	// the only thing LRU decisions read — is isomorphic to a fresh cache's.
	epoch uint64
	Stats Stats
	cfg   Config
	sets  int
}

func newRefCache(cfg Config) *refCache {
	line := 1 << cfg.LineShift
	if cfg.SizeBytes%(line*cfg.Ways) != 0 {
		panic(fmt.Sprintf("cachesim: %s size %d not divisible by ways*line", cfg.Name, cfg.SizeBytes))
	}
	sets := cfg.SizeBytes / (line * cfg.Ways)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cachesim: %s set count %d not a power of two", cfg.Name, sets))
	}
	return &refCache{
		ways:    make([]refWay, sets*cfg.Ways),
		shift:   cfg.LineShift,
		setMask: uint64(sets - 1),
		nw:      cfg.Ways,
		cfg:     cfg,
		sets:    sets,
	}
}

// line returns the line number and set index for an address.
func (c *refCache) line(addr uint64) (ln uint64, set int) {
	ln = addr >> c.shift
	return ln, int(ln & c.setMask)
}

// Lookup probes for addr without modifying contents, updating LRU and stats
// on a hit.
func (c *refCache) Lookup(addr uint64) bool {
	ln, set := c.line(addr)
	base := set * c.nw
	c.clock++
	s := c.ways[base : base+c.nw]
	for i := range s {
		if s[i].stamp > c.epoch && s[i].tag == ln {
			s[i].stamp = c.clock
			c.Stats.Hits++
			return true
		}
	}
	c.Stats.Misses++
	return false
}

// Insert fills addr's line, evicting LRU if needed. It returns the evicted
// line number and whether an eviction occurred (for inclusive back-
// invalidation).
//
// Victim selection replicates the original parallel-slice implementation
// exactly (byte-identical simulation output depends on it): an invalid way
// always overwrites the running victim — so the LAST invalid way in scan
// order wins — and otherwise the FIRST way holding the minimum stamp wins
// (valid stamps are unique, so strict < picks the first minimum).
func (c *refCache) Insert(addr uint64) (evicted uint64, wasEvicted bool) {
	ln, set := c.line(addr)
	base := set * c.nw
	c.clock++
	s := c.ways[base : base+c.nw]
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range s {
		if s[i].stamp > c.epoch && s[i].tag == ln {
			s[i].stamp = c.clock // already present
			return 0, false
		}
		if s[i].stamp <= c.epoch {
			victim = i
			oldest = 0
		} else if s[i].stamp < oldest {
			victim = i
			oldest = s[i].stamp
		}
	}
	wasEvicted = s[victim].stamp > c.epoch
	evicted = s[victim].tag
	s[victim].tag = ln
	s[victim].stamp = c.clock
	return evicted, wasEvicted
}

// InvalidateLine removes a line (by line number) if present.
func (c *refCache) InvalidateLine(ln uint64) {
	set := int(ln & c.setMask)
	base := set * c.nw
	s := c.ways[base : base+c.nw]
	for i := range s {
		if s[i].stamp > c.epoch && s[i].tag == ln {
			s[i].stamp = 0
			return
		}
	}
}

// Contains probes without any side effects (no LRU or stats update).
func (c *refCache) Contains(addr uint64) bool {
	ln, set := c.line(addr)
	base := set * c.nw
	for _, w := range c.ways[base : base+c.nw] {
		if w.stamp > c.epoch && w.tag == ln {
			return true
		}
	}
	return false
}

// EvictLRUHalf invalidates the least-recently-used half of every set. This
// is the simulator callback the antagonist microbenchmark invokes after
// each allocation (Sec. 5).
func (c *refCache) EvictLRUHalf() {
	half := c.cfg.Ways / 2
	for set := 0; set < c.sets; set++ {
		base := set * c.cfg.Ways
		s := c.ways[base : base+c.cfg.Ways]
		for k := 0; k < half; k++ {
			victim, oldest := -1, ^uint64(0)
			for i := range s {
				if s[i].stamp > c.epoch && s[i].stamp < oldest {
					victim, oldest = i, s[i].stamp
				}
			}
			if victim < 0 {
				break
			}
			s[victim].stamp = 0
		}
	}
}

// Occupancy returns the fraction of valid lines, for tests and reports.
func (c *refCache) Occupancy() float64 {
	n := 0
	for _, w := range c.ways {
		if w.stamp > c.epoch {
			n++
		}
	}
	return float64(n) / float64(len(c.ways))
}

// refHierarchy is the inclusive hierarchy over refCaches.
type refHierarchy struct {
	L1D, L2, L3 *refCache
	DTLB        *refCache
	cfg         HierarchyConfig
}

func newRefHierarchy(cfg HierarchyConfig) *refHierarchy {
	return &refHierarchy{
		L1D:  newRefCache(cfg.L1D),
		L2:   newRefCache(cfg.L2),
		L3:   newRefCache(cfg.L3),
		DTLB: newRefCache(cfg.DTLB),
		cfg:  cfg,
	}
}

// Load accesses addr and returns the latency in cycles, updating all cache
// state (fills on miss, inclusive).
func (h *refHierarchy) Load(addr uint64) uint64 {
	lat := h.tlb(addr)
	switch {
	case h.L1D.Lookup(addr):
		lat += h.L1D.cfg.Latency
	case h.L2.Lookup(addr):
		lat += h.L2.cfg.Latency
		h.fill1(addr)
	case h.L3.Lookup(addr):
		lat += h.L3.cfg.Latency
		h.fill1(addr)
		h.L2.Insert(addr)
	default:
		lat += h.cfg.MemLatency
		h.fillAll(addr)
	}
	return lat
}

// tlb returns the translation penalty for addr (0 on a dTLB hit).
func (h *refHierarchy) tlb(addr uint64) uint64 {
	if h.DTLB.Lookup(addr) {
		return 0
	}
	h.DTLB.Insert(addr)
	return h.cfg.TLBWalkLatency
}

func (h *refHierarchy) fill1(addr uint64) {
	h.L1D.Insert(addr)
}

func (h *refHierarchy) fillAll(addr uint64) {
	h.L1D.Insert(addr)
	h.L2.Insert(addr)
	if evicted, ok := h.L3.Insert(addr); ok {
		// Inclusive L3: back-invalidate inner copies of the victim.
		// Line numbers differ per level only if line sizes differ; all
		// levels use 64-byte lines here.
		h.L2.InvalidateLine(evicted)
		h.L1D.InvalidateLine(evicted)
	}
}

// Antagonize evicts the LRU half of each L1D and L2 set, emulating a
// cache-hungry application region between allocator calls.
func (h *refHierarchy) Antagonize() {
	h.L1D.EvictLRUHalf()
	h.L2.EvictLRUHalf()
}
