// Package cachesim models the data-side memory hierarchy of the simulated
// Haswell-like core: a set-associative, LRU, inclusive L1D/L2/L3 cache
// stack, a data TLB with a page-walk penalty, and the antagonist eviction
// callback the paper's `antagonist` microbenchmark uses ("evicts the less
// used half of each set of the L1 and L2 data caches").
//
// Timing and state are deliberately simple — single fixed latency per
// level, no MSHR limits, no bandwidth modeling — matching the granularity
// at which the paper reasons about fast-path costs (an L1 hit is ~4 cycles,
// an L3 hit ~34-36, a DRAM access ~200). Replacement is exact true LRU:
// each set keeps its live tags in recency order, so the LRU line is always
// the set's last.
package cachesim

import (
	"fmt"
	"math"
	"math/bits"

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

// Cache is one set-associative level with true-LRU replacement.
//
// Set s holds its n[s] live tags most-recent-first in
// tags[s*Ways : s*Ways+n[s]]; the slots past n[s] are garbage. A hit
// moves its tag to the front, a fill evicts the tail when the set is full
// and writes the front, so recency needs no stamps or clock. A tag is the
// line number with the set-index bits shifted out (the set is implied by
// the slot, so an evicted line is rebuilt as tag<<setBits | set), which
// makes an 8 MiB, 16-way L3 cost 544 KiB of host memory. A line whose tag
// needs more than 32 bits panics rather than alias; for the default L1D
// (64 sets of 64-byte lines) that is any address at or above 2^44, which
// trace parsing keeps out of reach.
type Cache struct {
	tags    []uint32 // sets*Ways tags, each set most-recent-first
	n       []uint32 // live tags per set
	shift   uint     // cfg.LineShift
	setBits uint     // log2(sets)
	setMask uint64   // sets - 1
	nw      int      // cfg.Ways
	Stats   Stats
	cfg     Config
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
	// One allocation for both slices: a multicore engine builds four
	// caches per simulated core.
	lines := sets * cfg.Ways
	meta := make([]uint32, lines+sets)
	return &Cache{
		tags:    meta[:lines:lines],
		n:       meta[lines:],
		shift:   cfg.LineShift,
		setBits: uint(bits.TrailingZeros(uint(sets))),
		setMask: uint64(sets - 1),
		nw:      cfg.Ways,
		cfg:     cfg,
	}
}

// Latency returns the hit latency.
func (c *Cache) Latency() uint64 { return c.cfg.Latency }

// line returns the tag and set index for an address.
func (c *Cache) line(addr uint64) (tag uint32, set int) {
	ln := addr >> c.shift
	t := ln >> c.setBits
	if t > math.MaxUint32 {
		panic(tagOverflow{c.cfg.Name, addr})
	}
	return uint32(t), int(ln & c.setMask)
}

// tagOverflow is the panic value for an address whose tag needs more than
// 32 bits. Formatting waits for Error, so that line stays cheap enough to
// inline into every probe.
type tagOverflow struct {
	name string
	addr uint64
}

func (e tagOverflow) Error() string {
	return fmt.Sprintf("cachesim: %s address %#x is beyond the 32-bit tag range", e.name, e.addr)
}

// live returns set's live tags, most recent first.
func (c *Cache) live(set int) []uint32 {
	base := set * c.nw
	return c.tags[base : base+int(c.n[set])]
}

// touch looks tag up in set and, if present, moves it to the front.
func (c *Cache) touch(tag uint32, set int) bool {
	s := c.live(set)
	for i, t := range s {
		if t == tag {
			copy(s[1:i+1], s[:i])
			s[0] = tag
			return true
		}
	}
	return false
}

// mru reports whether addr's line is the most recent of its set, the one
// case in which access only counts a hit.
func (c *Cache) mru(addr uint64) bool {
	tag, set := c.line(addr)
	return c.n[set] != 0 && c.tags[set*c.nw] == tag
}

// fill writes an absent tag at the front of set, evicting the tail if the
// set is full, and returns the evicted line number.
func (c *Cache) fill(tag uint32, set int) (evicted uint64, wasEvicted bool) {
	base := set * c.nw
	n := int(c.n[set])
	if n == c.nw {
		n--
		evicted, wasEvicted = uint64(c.tags[base+n])<<c.setBits|uint64(set), true
	} else {
		c.n[set]++
	}
	s := c.tags[base : base+n+1]
	copy(s[1:], s[:n])
	s[0] = tag
	return evicted, wasEvicted
}

// access probes addr's set, counting a hit or miss, and on a miss fills
// the line, evicting the least recent one if the set is full.
func (c *Cache) access(addr uint64) (hit bool, evicted uint64, wasEvicted bool) {
	tag, set := c.line(addr)
	if c.touch(tag, set) {
		c.Stats.Hits++
		return true, 0, false
	}
	c.Stats.Misses++
	evicted, wasEvicted = c.fill(tag, set)
	return false, evicted, wasEvicted
}

// InvalidateLine removes a line (by line number) if present.
func (c *Cache) InvalidateLine(ln uint64) {
	t := ln >> c.setBits
	if t > math.MaxUint32 {
		return // never insertable, so never present
	}
	set := int(ln & c.setMask)
	s := c.live(set)
	for i, tag := range s {
		if tag == uint32(t) {
			copy(s[i:], s[i+1:])
			c.n[set]--
			return
		}
	}
}

// EvictLRUHalf invalidates the least-recently-used half of every set. This
// is the simulator callback the antagonist microbenchmark invokes after
// each allocation (Sec. 5).
func (c *Cache) EvictLRUHalf() {
	half := uint32(c.nw / 2)
	for i, n := range c.n {
		c.n[i] = n - min(n, half)
	}
}
