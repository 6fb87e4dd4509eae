// Package cachesim models the data-side memory hierarchy of the simulated
// Haswell-like core: a set-associative, LRU, inclusive L1D/L2/L3 cache
// stack, a data TLB with a page-walk penalty, and the antagonist eviction
// callback the paper's `antagonist` microbenchmark uses ("evicts the less
// used half of each set of the L1 and L2 data caches").
//
// Timing and state are deliberately simple — single fixed latency per
// level, no MSHR limits, no bandwidth modeling — matching the granularity
// at which the paper reasons about fast-path costs (an L1 hit is ~4 cycles,
// an L3 hit ~34-36, a DRAM access ~200).
package cachesim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"mallacc/internal/telemetry"
)

// Config describes one cache level.
type Config struct {
	// Name appears in statistics output.
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// LineShift is log2 of the line (or page, for TLBs) size.
	LineShift uint
	// Latency is the hit latency in cycles.
	Latency uint64
}

// Stats counts accesses per cache.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns the miss ratio in [0, 1].
func (s Stats) MissRate() float64 {
	return telemetry.Rate(s.Misses, s.Accesses())
}

// way is one cache line's metadata, packed into 8 bytes so an 8-way set
// fills exactly one 64-byte host line and an 8 MiB L3 costs 1 MiB of host
// memory.
//
// The tag is the line number with the set-index bits shifted out: the set
// is implied by the way's slot, so Insert rebuilds an evicted line number
// as tag<<setBits | set. A line whose tag needs more than 32 bits panics
// rather than alias; for the default L1D (64 sets of 64-byte lines) that is
// any address at or above 2^44, which trace parsing keeps out of reach.
//
// A line is valid iff stamp > the cache's epoch watermark: the LRU clock
// pre-increments before every stamp write, so live lines always carry a
// stamp above the epoch they were written in, and whole-cache invalidation
// (Flush) is O(1) — raise the epoch to the current clock and every line
// goes stale at once. Single-line invalidation zeroes the stamp (0 is never
// above any epoch). When the 32-bit clock would wrap, renumber rewrites
// every stamp without changing any decision LRU can make.
type way struct {
	tag   uint32 // line number >> setBits; garbage while stale
	stamp uint32 // LRU stamp; valid iff > the cache epoch
}

// Cache is one set-associative level with true-LRU replacement implemented
// via per-line access stamps. The fields a probe reads — the way array,
// the precomputed geometry, the clock and the epoch — lead the struct so
// they share cache lines; cfg holds the cold configuration copy.
type Cache struct {
	ways    []way  // sets*cfg.Ways
	shift   uint   // cfg.LineShift
	setBits uint   // log2(sets)
	setMask uint64 // sets - 1
	nw      int    // cfg.Ways
	clock   uint32
	// epoch is the invalidation watermark: lines stamped at or below it are
	// stale. The clock never rewinds across Flush, so stamp order — the
	// only thing LRU decisions read — is isomorphic to a fresh cache's.
	epoch uint32
	Stats Stats
	cfg   Config
	sets  int
}

// New builds a cache from cfg, validating the geometry.
func New(cfg Config) *Cache {
	line := 1 << cfg.LineShift
	if cfg.SizeBytes%(line*cfg.Ways) != 0 {
		panic(fmt.Sprintf("cachesim: %s size %d not divisible by ways*line", cfg.Name, cfg.SizeBytes))
	}
	sets := cfg.SizeBytes / (line * cfg.Ways)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cachesim: %s set count %d not a power of two", cfg.Name, sets))
	}
	return &Cache{
		ways:    make([]way, sets*cfg.Ways),
		shift:   cfg.LineShift,
		setBits: uint(bits.TrailingZeros(uint(sets))),
		setMask: uint64(sets - 1),
		nw:      cfg.Ways,
		cfg:     cfg,
		sets:    sets,
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// Latency returns the hit latency.
func (c *Cache) Latency() uint64 { return c.cfg.Latency }

// line returns the tag and set index for an address.
func (c *Cache) line(addr uint64) (tag uint32, set int) {
	ln := addr >> c.shift
	t := ln >> c.setBits
	if t > math.MaxUint32 {
		panic(fmt.Sprintf("cachesim: %s address %#x is beyond the 32-bit tag range", c.cfg.Name, addr))
	}
	return uint32(t), int(ln & c.setMask)
}

// tick advances the LRU clock for one stamp write, renumbering first if
// the clock would wrap.
func (c *Cache) tick() uint32 {
	if c.clock == math.MaxUint32 {
		c.renumber()
	}
	c.clock++
	return c.clock
}

// renumber compacts the stamps so the clock can restart: stale ways get 0,
// each set's valid ways get 1..k in their current LRU order, the epoch
// drops to 0 and the clock to Ways. This is exact because LRU only ever
// compares stamps within one set and against the epoch, and a way's
// position is never observable: a victim is either an invalid way (no
// eviction) or the set's unique minimum stamp.
func (c *Cache) renumber() {
	order := make([]int, 0, c.nw)
	for base := 0; base < len(c.ways); base += c.nw {
		s := c.ways[base : base+c.nw]
		order = order[:0]
		for i := range s {
			if s[i].stamp > c.epoch {
				order = append(order, i)
			} else {
				s[i].stamp = 0
			}
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(s[a].stamp, s[b].stamp) })
		for k, i := range order {
			s[i].stamp = uint32(k + 1)
		}
	}
	c.epoch = 0
	c.clock = uint32(c.nw)
}

// Lookup probes for addr without modifying contents, updating LRU and stats
// on a hit.
func (c *Cache) Lookup(addr uint64) bool {
	tag, set := c.line(addr)
	base := set * c.nw
	now := c.tick()
	s := c.ways[base : base+c.nw]
	for i := range s {
		if s[i].stamp > c.epoch && s[i].tag == tag {
			s[i].stamp = now
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
// Victim selection keeps the original parallel-slice implementation's
// rule: an invalid way always overwrites the running victim — so the LAST
// invalid way in scan order wins — and otherwise the FIRST way holding the
// minimum stamp wins (valid stamps are unique, so strict < picks the first
// minimum).
func (c *Cache) Insert(addr uint64) (evicted uint64, wasEvicted bool) {
	tag, set := c.line(addr)
	base := set * c.nw
	now := c.tick()
	s := c.ways[base : base+c.nw]
	victim := 0
	oldest := uint32(math.MaxUint32) // every valid stamp is below now
	for i := range s {
		if s[i].stamp > c.epoch && s[i].tag == tag {
			s[i].stamp = now // already present
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
	evicted = uint64(s[victim].tag)<<c.setBits | uint64(set)
	s[victim].tag = tag
	s[victim].stamp = now
	return evicted, wasEvicted
}

// InvalidateLine removes a line (by line number) if present.
func (c *Cache) InvalidateLine(ln uint64) {
	t := ln >> c.setBits
	if t > math.MaxUint32 {
		return // never insertable, so never present
	}
	base := int(ln&c.setMask) * c.nw
	s := c.ways[base : base+c.nw]
	for i := range s {
		if s[i].stamp > c.epoch && s[i].tag == uint32(t) {
			s[i].stamp = 0
			return
		}
	}
}

// Contains probes without any side effects (no LRU or stats update).
func (c *Cache) Contains(addr uint64) bool {
	tag, set := c.line(addr)
	base := set * c.nw
	for _, w := range c.ways[base : base+c.nw] {
		if w.stamp > c.epoch && w.tag == tag {
			return true
		}
	}
	return false
}

// EvictLRUHalf invalidates the least-recently-used half of every set. This
// is the simulator callback the antagonist microbenchmark invokes after
// each allocation (Sec. 5).
func (c *Cache) EvictLRUHalf() {
	half := c.nw / 2
	for base := 0; base < len(c.ways); base += c.nw {
		s := c.ways[base : base+c.nw]
		for k := 0; k < half; k++ {
			victim := -1
			for i := range s {
				if s[i].stamp > c.epoch && (victim < 0 || s[i].stamp < s[victim].stamp) {
					victim = i
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
func (c *Cache) Flush() {
	c.epoch = c.clock
}

// Occupancy returns the fraction of valid lines, for tests and reports.
func (c *Cache) Occupancy() float64 {
	n := 0
	for _, w := range c.ways {
		if w.stamp > c.epoch {
			n++
		}
	}
	return float64(n) / float64(len(c.ways))
}
