package cachesim

// This file keeps a frozen copy of the cache as it was before ways were
// packed into 8 bytes — a full 64-bit line number as the tag and a 64-bit
// LRU clock that never wraps — as an executable reference model. The
// lockstep test in cachesim_test.go drives it and the production Cache with
// identical operation streams and demands identical answers, which is what
// licenses the packed layout (implied set bits, 32-bit stamps renumbered on
// wrap) to claim byte-identical pinned metrics.
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

// Flush invalidates the whole cache in O(1): the epoch watermark rises to
// the current clock, invalidating every line at once. Statistics survive.
func (c *refCache) Flush() {
	c.epoch = c.clock
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
