// Package core implements the paper's primary contribution: the Mallacc
// in-core accelerator. It models the malloc cache — a tiny, fully
// associative, software-managed structure mapping size-class-index ranges
// to (size class, allocation size) plus cached copies of the first two
// free-list elements — with the exact semantics of the five new
// instructions given in Figures 9 and 11 of the paper (mcszlookup,
// mcszupdate, mchdpop, mchdpush, mcnxtprefetch), LRU replacement, the
// TCMalloc-specific index-computation mode (a configuration register), and
// the sampling performance counter of Section 4.2.
//
// This package is purely functional: it decides hits, misses and state
// transitions. Timing — instruction latencies, the +1 cycle of index mode,
// and entry blocking while a prefetch is outstanding — is applied by the
// CPU model from the micro-ops the instrumented allocator emits.
package core

import "mallacc/internal/telemetry"

// Replacement selects the eviction policy.
type Replacement uint8

const (
	// ReplaceLRU is the paper's policy ("an old entry is evicted based on
	// an LRU policy").
	ReplaceLRU Replacement = iota
	// ReplaceFIFO evicts in insertion order — an ablation showing what
	// the LRU CAM buys.
	ReplaceFIFO
)

// Config parameterizes the malloc cache.
type Config struct {
	// Entries is the number of cache entries (the paper sweeps 2-32 and
	// settles on 16).
	Entries int
	// IndexMode keys entries on TCMalloc's size-class index (Fig. 5)
	// instead of the raw requested size. Indices compress the key space,
	// so the cache learns ranges faster with fewer cold misses, at the
	// cost of one extra cycle of lookup latency and TCMalloc specificity.
	// It is the one allocator-specific optimization and can be disabled
	// (Sec. 4.1).
	IndexMode bool
	// Replacement is the eviction policy (default LRU, per the paper).
	Replacement Replacement
	// NoNextSlot disables caching of the second list element: pops hit on
	// Head alone and the software still executes the dependent *head load
	// to find the next element. This ablates the paper's claim that
	// committing the head update without waiting for that load is the
	// main free-list win.
	NoNextSlot bool
	// NoRestoreOnMiss keeps mcnxtprefetch from installing the full
	// (Head, Next) pair into an empty entry — the literal single-value
	// reading of Fig. 11, which can never make a pure pop stream hit
	// again after a miss (see DESIGN.md).
	NoRestoreOnMiss bool
}

// DefaultConfig returns the paper's chosen configuration: 16 entries,
// index mode on, LRU, full two-element caching.
func DefaultConfig() Config { return Config{Entries: 16, IndexMode: true} }

// Entry is one malloc-cache row (Fig. 8): a validity bit, a key range, the
// size class and its rounded allocation size, and copies of the first two
// free-list elements.
type Entry struct {
	Valid bool
	// LoKey, HiKey bound the cached range, inclusive. Keys are size-class
	// indices in index mode, raw requested sizes otherwise.
	LoKey, HiKey uint64
	SizeClass    uint8
	AllocSize    uint64
	// Head and Next cache the first two elements of the size class's
	// thread-local free list; zero means not present (NULL).
	Head, Next uint64

	lru uint64
	ins uint64 // insertion stamp, for the FIFO ablation
}

// Stats counts per-operation hits and misses.
type Stats struct {
	LookupHits, LookupMisses uint64
	PopHits, PopMisses       uint64
	Pushes                   uint64
	Updates, Evictions       uint64
	Prefetches               uint64
	Flushes                  uint64
}

// MallocCache is the functional model of the structure in Figure 8.
type MallocCache struct {
	cfg     Config
	entries []Entry
	clock   uint64
	Stats   Stats
}

// New builds a malloc cache. Entry counts below 1 panic: the hardware
// cannot be built without storage.
func New(cfg Config) *MallocCache {
	if cfg.Entries < 1 {
		panic("core: malloc cache needs at least one entry")
	}
	return &MallocCache{cfg: cfg, entries: make([]Entry, cfg.Entries)}
}

// Config returns the configuration.
func (m *MallocCache) Config() Config { return m.cfg }

func (m *MallocCache) touch(i int) {
	m.clock++
	m.entries[i].lru = m.clock
}

// findByKey returns the index of the valid entry whose range contains key,
// or -1. This is the associative search of mcszlookup.
func (m *MallocCache) findByKey(key uint64) int {
	for i := range m.entries {
		e := &m.entries[i]
		if e.Valid && key >= e.LoKey && key <= e.HiKey {
			return i
		}
	}
	return -1
}

// FindClass returns the index of the valid entry holding a size class, or
// -1; used by allocator integrations for uop bookkeeping.
func (m *MallocCache) FindClass(class uint8) int { return m.findByClass(class) }

// findByClass returns the index of the valid entry for a size class, or -1.
func (m *MallocCache) findByClass(class uint8) int {
	for i := range m.entries {
		e := &m.entries[i]
		if e.Valid && e.SizeClass == class {
			return i
		}
	}
	return -1
}

// SzLookup implements mcszlookup (Fig. 9): given the lookup key (size-class
// index in index mode, requested size otherwise), it returns the entry
// index, size class and allocation size on a hit. ok mirrors the zero flag.
func (m *MallocCache) SzLookup(key uint64) (entry int, class uint8, allocSize uint64, ok bool) {
	i := m.findByKey(key)
	if i < 0 {
		m.Stats.LookupMisses++
		return -1, 0, 0, false
	}
	m.touch(i)
	m.Stats.LookupHits++
	e := &m.entries[i]
	return i, e.SizeClass, e.AllocSize, true
}

// SzUpdate implements mcszupdate exactly per Fig. 9: on a miss for an
// already-present class, the range's *lower* bound drops to the requested
// key; on insertion the range is (key, hiKey) where hiKey is the key of
// the class's rounded allocation size — the upper bound is maximal from
// the first touch ("SizeRange = (ReqSize, AllocSize)"), so only sizes
// below the first observed one ever cold-miss again. It returns the entry
// index used.
func (m *MallocCache) SzUpdate(key, hiKey uint64, allocSize uint64, class uint8) int {
	if hiKey < key {
		hiKey = key
	}
	m.Stats.Updates++
	if i := m.findByClass(class); i >= 0 {
		e := &m.entries[i]
		if key < e.LoKey {
			e.LoKey = key
		}
		if hiKey > e.HiKey {
			e.HiKey = hiKey
		}
		e.AllocSize = allocSize
		m.touch(i)
		return i
	}
	i := m.victim()
	if m.entries[i].Valid {
		m.Stats.Evictions++
	}
	m.clock++
	m.entries[i] = Entry{Valid: true, LoKey: key, HiKey: hiKey, SizeClass: class, AllocSize: allocSize, ins: m.clock}
	m.touch(i)
	return i
}

// victim returns an invalid entry if one exists, else the entry chosen by
// the replacement policy.
func (m *MallocCache) victim() int {
	best, bestStamp := 0, ^uint64(0)
	for i := range m.entries {
		e := &m.entries[i]
		if !e.Valid {
			return i
		}
		stamp := e.lru
		if m.cfg.Replacement == ReplaceFIFO {
			stamp = e.ins
		}
		if stamp < bestStamp {
			best, bestStamp = i, stamp
		}
	}
	return best
}

// HdPop implements mchdpop (Fig. 11). On a hit (entry present with both
// Head and Next non-NULL) it returns both elements, promotes Next to Head
// and invalidates Next. If the entry is present but either element is NULL,
// the access is a miss and both elements are invalidated. ok mirrors ZF.
func (m *MallocCache) HdPop(class uint8) (entry int, head, next uint64, ok bool) {
	i := m.findByClass(class)
	if i < 0 {
		m.Stats.PopMisses++
		return -1, 0, 0, false
	}
	e := &m.entries[i]
	m.touch(i)
	if m.cfg.NoNextSlot {
		// Head-only ablation: a hit hands out the head but software still
		// dereferences it to find the next element.
		if e.Head != 0 {
			head = e.Head
			e.Head = 0
			m.Stats.PopHits++
			return i, head, 0, true
		}
		m.Stats.PopMisses++
		return i, 0, 0, false
	}
	if e.Head != 0 && e.Next != 0 {
		head, next = e.Head, e.Next
		e.Head = next
		e.Next = 0
		m.Stats.PopHits++
		return i, head, next, true
	}
	e.Head, e.Next = 0, 0
	m.Stats.PopMisses++
	return i, 0, 0, false
}

// HdPush implements mchdpush (Fig. 11): if an entry for class exists, the
// freed pointer becomes the cached Head and the previous Head shifts to
// Next. Pushing to an absent class is a silent no-op (no allocation — the
// cache only tracks classes it has learned).
func (m *MallocCache) HdPush(class uint8, newHead uint64) (entry int) {
	i := m.findByClass(class)
	if i < 0 {
		return -1
	}
	e := &m.entries[i]
	if m.cfg.NoNextSlot {
		e.Head = newHead
	} else {
		e.Next = e.Head
		e.Head = newHead
	}
	m.touch(i)
	m.Stats.Pushes++
	return i
}

// NxtPrefetch implements the state-update half of mcnxtprefetch (Fig. 11):
// the instruction's memory operand reads the word at addr (the free list's
// current first element) and the returned value — that element's next
// pointer — fills the Next slot. When the entry's Head is empty (the
// preceding pop missed), both the operand address and the loaded value are
// installed, restoring the full (Head, Next) pair; this is the
// "prefetch ... called on a miss" behaviour that the paper credits with
// higher hit rates, realized in the only way that preserves the
// *Head == Next invariant (see DESIGN.md for the derivation — installing
// just the loaded value, as a literal reading of the Fig. 11 pseudocode
// suggests, would let a later pop corrupt the real list). The timing half —
// the entry blocking until the value returns — is enforced by the CPU
// model. It returns the entry index affected, or -1.
func (m *MallocCache) NxtPrefetch(class uint8, addr, value uint64) (entry int) {
	i := m.findByClass(class)
	if i < 0 || addr == 0 {
		return -1
	}
	e := &m.entries[i]
	m.Stats.Prefetches++
	switch {
	case m.cfg.NoNextSlot:
		if e.Head == 0 {
			e.Head = addr
		}
	case e.Head != 0 && e.Next == 0:
		// Invariant: Head must be the element being dereferenced.
		if e.Head == addr {
			e.Next = value
		}
	case e.Head == 0:
		if !m.cfg.NoRestoreOnMiss {
			e.Head, e.Next = addr, value
		}
	}
	m.touch(i)
	return i
}

// PrefetchValue is the allocator-agnostic form of mcnxtprefetch, matching
// the Figure 11 pseudocode literally: the loaded value fills the Next slot
// when Head is present and Next empty. Allocators whose "next element" is
// not reachable by dereferencing Head (e.g. jemalloc's array-based tcache
// stacks, where the second element sits in an adjacent array slot) use
// this form; the software guarantees value consistency via the entry-
// blocking rule instead of the *Head == Next invariant.
func (m *MallocCache) PrefetchValue(class uint8, value uint64) (entry int) {
	i := m.findByClass(class)
	if i < 0 || value == 0 {
		return -1
	}
	e := &m.entries[i]
	m.Stats.Prefetches++
	if !m.cfg.NoNextSlot && e.Head != 0 && e.Next == 0 {
		e.Next = value
	}
	m.touch(i)
	return i
}

// InvalidateClass drops the free-list copies for a class (used when
// software manipulates the real list out from under the cache, e.g. when a
// thread cache is scavenged or a span is returned).
func (m *MallocCache) InvalidateClass(class uint8) {
	if i := m.findByClass(class); i >= 0 {
		m.entries[i].Head, m.entries[i].Next = 0, 0
	}
}

// Flush invalidates the whole cache. Because entries are only fast copies
// (the definitive free lists live in memory), flushing needs no writebacks
// — exactly the context-switch argument of Sec. 4.1.
func (m *MallocCache) Flush() {
	for i := range m.entries {
		m.entries[i] = Entry{}
	}
	m.Stats.Flushes++
}

// LookupHitRate returns the size-class lookup hit ratio.
func (s Stats) LookupHitRate() float64 { return telemetry.Ratio(s.LookupHits, s.LookupMisses) }

// PopHitRate returns the head-pop hit ratio.
func (s Stats) PopHitRate() float64 { return telemetry.Ratio(s.PopHits, s.PopMisses) }

// RegisterMetrics adds the malloc cache's operation counters and hit-rate
// gauges to reg under "mc.*".
func (m *MallocCache) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("mc.lookup.hits", func() uint64 { return m.Stats.LookupHits })
	reg.Counter("mc.lookup.misses", func() uint64 { return m.Stats.LookupMisses })
	reg.Counter("mc.pop.hits", func() uint64 { return m.Stats.PopHits })
	reg.Counter("mc.pop.misses", func() uint64 { return m.Stats.PopMisses })
	reg.Counter("mc.pushes", func() uint64 { return m.Stats.Pushes })
	reg.Counter("mc.updates", func() uint64 { return m.Stats.Updates })
	reg.Counter("mc.evictions", func() uint64 { return m.Stats.Evictions })
	reg.Counter("mc.prefetches", func() uint64 { return m.Stats.Prefetches })
	reg.Counter("mc.flushes", func() uint64 { return m.Stats.Flushes })
	reg.Gauge("mc.lookup.hit_rate", func() float64 { return m.Stats.LookupHitRate() })
	reg.Gauge("mc.pop.hit_rate", func() float64 { return m.Stats.PopHitRate() })
}
