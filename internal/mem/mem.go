// Package mem provides the simulated 48-bit address space the reproduced
// TCMalloc substrate allocates from. No real memory proportional to the
// simulated heap is used: only 8-byte words that the allocator actually
// writes (chiefly the in-band free-list "next" pointers TCMalloc stores
// inside free objects, and allocator metadata) are materialized, in a
// sharded open-addressed word store whose tables are pooled across spaces.
//
// Keeping the heap simulated has two purposes. First, Go's garbage collector
// never interacts with it, so timing results are deterministic (the
// repro-band concern about a GC runtime hosting a tcmalloc-style model).
// Second, addresses are plain integers, which is exactly what the cache
// hierarchy and TLB models consume.
package mem

import (
	"fmt"
	"math/bits"
	"sync"
)

const (
	// PageShift matches TCMalloc's kPageShift at the evaluated revision:
	// 8 KiB pages.
	PageShift = 13
	// PageSize is the allocator page size in bytes.
	PageSize = 1 << PageShift
	// AddressBits is the usable virtual address width (x86-64 uses the
	// lower 48 bits; the paper's area model stores 48-bit pointers).
	AddressBits = 48
	// CacheLineSize is used by the cache models for alignment.
	CacheLineSize = 64
)

// wordShardCount splits the word store into independent tables. Each shard
// grows on its own, so a rehash copies one sixty-fourth of the store rather
// than all of it, and the per-shard tables stay small enough to be
// cache-resident.
const wordShardCount = 64

// wordShardInitSlots is a fresh shard's slot count (power of two).
const wordShardInitSlots = 256

// wordShard is one open-addressed uint64->uint64 table with linear probing.
// Key 0 marks an empty slot (WriteWord refuses address 0).
// Keys are never removed: writing value 0 zeroes the slot's value in place
// (the word stops counting as live), and zero-valued keys are dropped at the
// next rehash.
type wordShard struct {
	keys []uint64
	vals []uint64
	tab  *wordTable // the pooled box keys and vals came from
	used int        // occupied slots, including zero-valued keys
	live int        // keys holding a nonzero value
}

// wordHash mixes an 8-aligned address into well-distributed bits; the top
// bits pick the shard, the low bits the starting slot.
func wordHash(addr uint64) uint64 {
	h := addr * 0x9e3779b97f4a7c15
	return h ^ (h >> 29)
}

func (sh *wordShard) get(h, addr uint64) uint64 {
	if len(sh.keys) == 0 {
		return 0
	}
	mask := uint64(len(sh.keys) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		k := sh.keys[i]
		if k == addr {
			return sh.vals[i]
		}
		if k == 0 {
			return 0
		}
	}
}

func (sh *wordShard) set(h, addr, val uint64) {
	if len(sh.keys) == 0 {
		if val == 0 {
			return
		}
		sh.take(wordShardInitSlots)
	}
	mask := uint64(len(sh.keys) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch sh.keys[i] {
		case addr:
			if val == 0 {
				if sh.vals[i] != 0 {
					sh.live--
				}
			} else if sh.vals[i] == 0 {
				sh.live++
			}
			sh.vals[i] = val
			return
		case 0:
			if val == 0 {
				return
			}
			sh.keys[i] = addr
			sh.vals[i] = val
			sh.used++
			sh.live++
			if sh.used*4 >= len(sh.keys)*3 {
				sh.rehash()
			}
			return
		}
	}
}

// rehash grows the table and drops zero-valued keys accumulated since the
// last rehash. The outgrown table goes to the garbage collector, not to a
// pool: no other shard of a growing space wants it, and a pool would keep
// it alive through the next collection while the space is at its largest.
func (sh *wordShard) rehash() {
	n := len(sh.keys) * 2
	for n < sh.live*2 {
		n *= 2
	}
	oldK, oldV := sh.keys, sh.vals
	sh.take(n)
	sh.used, sh.live = 0, 0
	mask := uint64(n - 1)
	for i, k := range oldK {
		if k == 0 || oldV[i] == 0 {
			continue
		}
		for j := wordHash(k) & mask; ; j = (j + 1) & mask {
			if sh.keys[j] == 0 {
				sh.keys[j] = k
				sh.vals[j] = oldV[i]
				break
			}
		}
		sh.used++
		sh.live++
	}
}

// Word tables are pooled across spaces. A simulation run builds a fresh
// Space and grows its shards from 256 slots, so without pooling every run
// reallocates the tables of the run before it. Release hands a finished
// space's tables to the pools, and a shard takes its first table and
// each grown one from there. There is one pool per table length, not one
// pool of whole spaces: a space only ever takes a table of the length it
// asked for, so a run with a few hundred live words never inherits the
// large tables of a run with tens of thousands.

// wordTable is one shard's key and value arrays, boxed so that the pools
// hold a pointer and putting a table back allocates nothing.
type wordTable struct {
	keys, vals []uint64
}

// wordTablePools holds released tables by length: an n-slot table (n a
// power of two) lives in wordTablePools[bits.Len(n)].
var wordTablePools [64]sync.Pool

// take installs an empty n-slot table, a recycled one when its pool has
// one. Only keys needs clearing: a value is read only where its key
// matches, and written whenever a slot is filled.
func (sh *wordShard) take(n int) {
	t, _ := wordTablePools[bits.Len(uint(n))].Get().(*wordTable)
	if t != nil {
		clear(t.keys)
	} else {
		t = &wordTable{keys: make([]uint64, n), vals: make([]uint64, n)}
	}
	sh.tab, sh.keys, sh.vals = t, t.keys, t.vals
}

// Space is a simulated flat address space with an sbrk-style growth pointer
// and a sparse 8-byte word store.
type Space struct {
	brk   uint64
	limit uint64

	// shards is the sharded word store.
	shards [wordShardCount]wordShard

	// SbrkCalls counts OS memory requests, which the timing model charges
	// as expensive system calls.
	SbrkCalls int
	// SbrkBytes is the total memory "requested from the OS".
	SbrkBytes uint64
}

// NewSpace creates a space whose heap starts at base and may grow to limit.
// base must be page aligned.
func NewSpace(base, limit uint64) *Space {
	if base%PageSize != 0 {
		panic("mem: base not page aligned")
	}
	if limit <= base || limit > 1<<AddressBits {
		panic("mem: bad limit")
	}
	return &Space{brk: base, limit: limit}
}

// NewDefaultSpace returns a space with the layout used throughout the
// reproduction: heap at 256 MiB, growable to 64 GiB.
func NewDefaultSpace() *Space {
	return NewSpace(1<<28, 1<<36)
}

// Sbrk grows the heap by n bytes (rounded up to a page) and returns the
// start address of the new region, mimicking an OS memory request.
func (s *Space) Sbrk(n uint64) uint64 {
	n = RoundUp(n, PageSize)
	if s.brk+n > s.limit {
		panic(fmt.Sprintf("mem: simulated heap exhausted (brk=%#x, want %d bytes)", s.brk, n))
	}
	addr := s.brk
	s.brk += n
	s.SbrkCalls++
	s.SbrkBytes += n
	return addr
}

// ReadWord returns the 8-byte word at addr (0 if never written). addr must
// be 8-byte aligned: the allocator only stores aligned pointers.
func (s *Space) ReadWord(addr uint64) uint64 {
	if addr%8 != 0 {
		panic(fmt.Sprintf("mem: unaligned read at %#x", addr))
	}
	h := wordHash(addr)
	return s.shards[h>>(64-6)].get(h, addr)
}

// WriteWord stores an 8-byte word at addr. Writing 0 un-materializes the
// word (free objects whose in-band pointers are cleared stop counting as
// live state).
func (s *Space) WriteWord(addr, val uint64) {
	if addr%8 != 0 {
		panic(fmt.Sprintf("mem: unaligned write at %#x", addr))
	}
	if addr == 0 {
		panic("mem: write at address 0")
	}
	h := wordHash(addr)
	s.shards[h>>(64-6)].set(h, addr, val)
}

// Release returns the word store's tables to their pools for the next
// space to take. The space's words are gone afterwards: it must not be
// read or written again. Its sbrk counters stay readable.
func (s *Space) Release() {
	for i := range s.shards {
		if t := s.shards[i].tab; t != nil {
			wordTablePools[bits.Len(uint(len(t.keys)))].Put(t)
		}
		s.shards[i] = wordShard{}
	}
}

// RoundUp rounds n up to a multiple of align (a power of two).
func RoundUp(n, align uint64) uint64 {
	return (n + align - 1) &^ (align - 1)
}

// Arena is a bump allocator carved out of a Space, used for allocator
// metadata (size-class tables, thread-cache structs, central list headers,
// radix-tree nodes). Metadata lives at stable simulated addresses so the
// cache models see realistic conflict behaviour between metadata and heap.
type Arena struct {
	space *Space
	cur   uint64
	end   uint64
}

// NewArena reserves n bytes of metadata space from s.
func NewArena(s *Space, n uint64) *Arena {
	start := s.Sbrk(n)
	return &Arena{space: s, cur: start, end: start + RoundUp(n, PageSize)}
}

// Alloc returns the address of a fresh metadata block of n bytes with the
// given alignment (power of two), growing the arena if required.
func (a *Arena) Alloc(n, align uint64) uint64 {
	addr := RoundUp(a.cur, align)
	if addr+n > a.end {
		// Grow by at least a page; arenas are for bounded metadata so this
		// stays rare.
		grow := RoundUp(n+align, PageSize)
		fresh := a.space.Sbrk(grow)
		if fresh == a.end {
			a.end += grow
		} else {
			a.cur = fresh
			a.end = fresh + grow
			addr = RoundUp(a.cur, align)
		}
	}
	a.cur = addr + n
	return addr
}
