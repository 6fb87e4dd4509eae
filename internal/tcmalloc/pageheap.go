package tcmalloc

import (
	"fmt"

	"mallacc/internal/mem"
	"mallacc/internal/uop"
)

// MaxPages is the largest span length with a dedicated free list; longer
// spans go to the large list (gperftools kMaxPages = 128 at 8 KiB pages =
// 1 MiB).
const MaxPages = 128

// minSystemAlloc is the smallest unit requested from the simulated OS, in
// pages (gperftools kMinSystemAlloc: grow by at least 1 MiB at a time).
const minSystemAlloc = MaxPages

// PageHeap manages spans of pages: free lists per exact length 1..MaxPages,
// a large list, span splitting and address-ordered coalescing through the
// page map, and growth via simulated OS requests. It sits below the central
// free lists ("Should both of these sources be empty themselves, TCMalloc
// allocates a span ... from a page allocator", Sec. 3.1).
type PageHeap struct {
	space    *mem.Space
	arena    *mem.Arena
	pm       *PageMap
	free     [MaxPages + 1]spanList // index = span length in pages
	large    spanList
	lockAddr uint64

	// Lock is the contention hook (nil when single-core); installed by
	// Heap.SetLockModel. lockHeldAt mirrors CentralFreeList's hold tracking.
	Lock       LockModel
	lockHeldAt int

	// Stats
	SpansAllocated uint64
	SpansFreed     uint64
	SpansSplit     uint64
	GrowCalls      uint64
	FreePages      uint64
}

// NewPageHeap builds an empty page heap over space, with metadata in arena.
func NewPageHeap(space *mem.Space, arena *mem.Arena, pm *PageMap) *PageHeap {
	return &PageHeap{space: space, arena: arena, pm: pm, lockAddr: arena.Alloc(64, 64)}
}

// PageMap exposes the radix tree (free() walks it).
func (ph *PageHeap) PageMap() *PageMap { return ph.pm }

// newSpanMeta allocates a span struct with a simulated metadata address.
func (ph *PageHeap) newSpanMeta(start, length uint64) *Span {
	return &Span{Start: start, Length: length, MetaAddr: ph.arena.Alloc(48, 8)}
}

// New allocates a span of exactly n pages, emitting the page-heap slow-path
// micro-ops. It never returns nil (the simulated OS never refuses).
func (ph *PageHeap) New(e *uop.Emitter, n uint64) *Span {
	if n == 0 {
		panic("tcmalloc: zero-page span requested")
	}
	ph.lock(e)
	s := ph.searchFreeAndCarve(e, n)
	if s == nil {
		ph.grow(e, n)
		s = ph.searchFreeAndCarve(e, n)
		if s == nil {
			panic("tcmalloc: page heap failed to grow")
		}
	}
	ph.unlock(e)
	ph.SpansAllocated++
	return s
}

// lock takes the page-heap lock: an uncontended atomic RMW on the lock word,
// plus whatever extra wait the installed LockModel charges under contention.
func (ph *PageHeap) lock(e *uop.Emitter) uop.Val {
	lk := e.Load(ph.lockAddr, uop.NoDep)
	v := e.ALUWithLat(17, lk, uop.NoDep)
	if ph.Lock != nil {
		if wait := ph.Lock.Acquire(LockPageHeap, 0); wait > 0 {
			v = e.Stall(wait, v)
		}
		ph.lockHeldAt = e.Len()
	}
	return v
}

// unlock releases the page-heap lock: a plain store.
func (ph *PageHeap) unlock(e *uop.Emitter) {
	if ph.Lock != nil {
		ph.Lock.Release(LockPageHeap, 0, e.Len()-ph.lockHeldAt)
	}
	e.Store(ph.lockAddr, uop.NoDep, uop.NoDep)
}

// searchFreeAndCarve scans the free lists for the first span of length >= n
// (first fit over exact lists, then best fit over the large list), splits
// off the remainder, and marks the result in use.
func (ph *PageHeap) searchFreeAndCarve(e *uop.Emitter, n uint64) *Span {
	// Walk the exact lists n..MaxPages: each probe is a load of the list
	// head plus a branch, the classic first-fit scan.
	for ln := n; ln <= MaxPages; ln++ {
		headDep := e.Load(ph.listHeadAddr(ln), uop.NoDep)
		if !ph.free[ln].empty() {
			e.Branch(siteHeapListHit, true, headDep)
			s := ph.free[ln].popFront()
			ph.FreePages -= s.Length
			return ph.carve(e, s, n)
		}
		e.Branch(siteHeapListHit, false, headDep)
	}
	// Best fit over the large list.
	var best *Span
	probe := e.Load(ph.listHeadAddr(0), uop.NoDep)
	for s := ph.large.head; s != nil; s = s.next {
		probe = e.Load(s.MetaAddr, probe)
		e.Branch(siteHeapLargeFit, s.Length >= n, probe)
		if s.Length >= n && (best == nil || s.Length < best.Length ||
			(s.Length == best.Length && s.Start < best.Start)) {
			best = s
		}
	}
	if best == nil {
		return nil
	}
	ph.large.remove(best)
	ph.FreePages -= best.Length
	return ph.carve(e, best, n)
}

// carve splits span s (already off its free list) into an n-page in-use
// span, returning the remainder to the free lists.
func (ph *PageHeap) carve(e *uop.Emitter, s *Span, n uint64) *Span {
	if s.Length < n {
		panic("tcmalloc: carve of short span")
	}
	if extra := s.Length - n; extra > 0 {
		rest := ph.newSpanMeta(s.Start+n, extra)
		rest.Location = SpanOnFreeList
		s.Length = n
		ph.recordSpan(e, rest)
		ph.insertFree(e, rest)
		ph.SpansSplit++
	}
	s.Location = SpanInUse
	s.SizeClass = 0
	s.Refcount = 0
	s.FreeHead = 0
	s.FreeCount = 0
	ph.recordSpan(e, s)
	return s
}

// recordSpan registers every page of s in the page map (functionally) and
// emits the boundary-page stores plus one store per interior page, the
// dominant cost of span bookkeeping.
func (ph *PageHeap) recordSpan(e *uop.Emitter, s *Span) {
	dep := e.ALU(uop.NoDep, uop.NoDep)
	for p := uint64(0); p < s.Length; p++ {
		ph.pm.EmitSet(e, s.Start+p, s, dep)
	}
	e.Store(s.MetaAddr, uop.NoDep, dep)
}

// insertFree puts s on the appropriate free list.
func (ph *PageHeap) insertFree(e *uop.Emitter, s *Span) {
	s.Location = SpanOnFreeList
	ph.FreePages += s.Length
	idx := s.Length
	if idx > MaxPages {
		idx = 0 // large list
	}
	e.Store(ph.listHeadAddr(idx), uop.NoDep, uop.NoDep)
	if s.Length <= MaxPages {
		ph.free[s.Length].pushFront(s)
	} else {
		ph.large.pushFront(s)
	}
}

// Delete returns span s to the heap, coalescing with free neighbours found
// through the page map (the buddy-less, address-ordered merge TCMalloc
// uses).
func (ph *PageHeap) Delete(e *uop.Emitter, s *Span) {
	lk := ph.lock(e)

	// Coalesce with the span ending just before us.
	if prev, dep := ph.pm.EmitGet(e, s.Start-1, lk); prev != nil && prev.Location == SpanOnFreeList {
		e.Branch(siteHeapCoalesce, true, dep)
		ph.removeFree(prev)
		prev.Length += s.Length
		s = prev
		ph.recordBoundary(e, s)
	} else {
		e.Branch(siteHeapCoalesce, false, dep)
	}
	// Coalesce with the span starting just after us.
	if next, dep := ph.pm.EmitGet(e, s.Start+s.Length, lk); next != nil && next.Location == SpanOnFreeList {
		e.Branch(siteHeapCoalesce, true, dep)
		ph.removeFree(next)
		s.Length += next.Length
		ph.recordBoundary(e, s)
	} else {
		e.Branch(siteHeapCoalesce, false, dep)
	}
	s.SizeClass = 0
	s.FreeHead = 0
	s.FreeCount = 0
	// Re-register boundaries (interior pages keep pointing at s or are
	// unreachable until re-carved).
	ph.pm.Set(s.Start, s)
	ph.pm.Set(s.Start+s.Length-1, s)
	ph.insertFree(e, s)
	ph.SpansFreed++
	ph.unlock(e)
}

func (ph *PageHeap) recordBoundary(e *uop.Emitter, s *Span) {
	ph.pm.Set(s.Start, s)
	ph.pm.Set(s.Start+s.Length-1, s)
	e.Store(s.MetaAddr, uop.NoDep, uop.NoDep)
}

func (ph *PageHeap) removeFree(s *Span) {
	ph.FreePages -= s.Length
	if s.Length <= MaxPages {
		ph.free[s.Length].remove(s)
	} else {
		ph.large.remove(s)
	}
}

// grow requests memory from the simulated OS: at least minSystemAlloc
// pages, charged as an expensive system call.
func (ph *PageHeap) grow(e *uop.Emitter, n uint64) {
	ask := n
	if ask < minSystemAlloc {
		ask = minSystemAlloc
	}
	addr := ph.space.Sbrk(ask << mem.PageShift)
	ph.GrowCalls++
	// Syscall cost: a serial chain of long-latency ops (~2500 cycles of
	// kernel entry, VMA bookkeeping and return).
	v := uop.NoDep
	for i := 0; i < 10; i++ {
		v = e.ALUWithLat(250, v, uop.NoDep)
	}
	s := ph.newSpanMeta(addr>>mem.PageShift, ask)
	ph.recordSpan(e, s)
	ph.insertFree(e, s)
}

// listHeadAddr gives a stable simulated address for a free-list head (index
// 0 = large list) so heap-walk loads have realistic locality.
func (ph *PageHeap) listHeadAddr(ln uint64) uint64 {
	return ph.lockAddr + 64 + ln*16
}

// CheckInvariants panics if free-list bookkeeping is inconsistent; tests
// call it after workloads.
func (ph *PageHeap) CheckInvariants() {
	var pages uint64
	for ln := 1; ln <= MaxPages; ln++ {
		for s := ph.free[ln].head; s != nil; s = s.next {
			if s.Length != uint64(ln) {
				panic(fmt.Sprintf("tcmalloc: span of length %d on list %d", s.Length, ln))
			}
			if s.Location != SpanOnFreeList {
				panic("tcmalloc: in-use span on free list")
			}
			pages += s.Length
		}
	}
	for s := ph.large.head; s != nil; s = s.next {
		if s.Length <= MaxPages {
			panic("tcmalloc: small span on large list")
		}
		pages += s.Length
	}
	if pages != ph.FreePages {
		panic(fmt.Sprintf("tcmalloc: free page accounting: counted %d, recorded %d", pages, ph.FreePages))
	}
}
