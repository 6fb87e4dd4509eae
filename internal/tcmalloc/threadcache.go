package tcmalloc

import (
	"fmt"

	"mallacc/internal/core"
	"mallacc/internal/uop"
)

// Thread-cache tuning constants (gperftools values at the evaluated
// revision).
const (
	// maxThreadCacheSize caps the bytes a thread cache may hold before
	// scavenging ("if that free list now exceeds a certain size (2MB)",
	// Sec. 3.1 — gperftools kMaxThreadCacheSize).
	maxThreadCacheSize = 2 << 20
	// maxDynamicFreeListLength caps per-list slow-start growth.
	maxDynamicFreeListLength = 8192
)

// freeList is one per-class singly linked list of free objects. The head
// pointer and the next pointers live in simulated memory (the in-band trick
// of Sec. 3.3: "*head is the value of the next pointer"); the Go-side
// fields shadow lengths for bookkeeping.
type freeList struct {
	headAddr uint64 // simulated address of the head pointer word
	length   int
	maxLen   int
	lowWater int
}

// ThreadCache is a per-thread top-level pool: one free list per size class,
// with slow-start list caps and byte-budget scavenging.
type ThreadCache struct {
	ID    int
	heap  *Heap
	lists []freeList
	// baseAddr anchors the metadata block; list headers are laid out at
	// baseAddr + class*32 so fast-path metadata accesses have realistic
	// locality.
	baseAddr uint64
	// size is the total bytes currently cached.
	size uint64
	// stackAddr anchors the simulated call stack (prologue/epilogue
	// accesses, stack-trace capture); tlsAddr holds the thread-cache
	// pointer the fast path loads first.
	stackAddr uint64
	tlsAddr   uint64
	sampler   *Sampler

	// Per-thread overrides of heap-level state, so each core in the
	// multicore engine runs its fast path against its own accelerator,
	// emitter and statistics. When nil, the heap-level instance is used
	// (the single-core harness path).
	//
	// MC/HW are the core-local accelerator state (malloc cache, sampling
	// PMU counter); Em is a core-local trace emitter; Stats is a per-thread
	// shard summed into Heap.StatsSnapshot.
	MC *core.MallocCache
	HW *core.SampleCounter
	Em *uop.Emitter

	// Stats
	Hits, Misses uint64
	Scavenges    uint64
	ListTooLongs uint64
	Stats        HeapStats
}

func newThreadCache(h *Heap, id int) *ThreadCache {
	n := h.SizeMap.NumClasses()
	base := h.Arena.Alloc(uint64(n)*32, 64)
	tc := &ThreadCache{ID: id, heap: h, baseAddr: base, lists: make([]freeList, n)}
	for c := range tc.lists {
		tc.lists[c].headAddr = base + uint64(c)*32
		tc.lists[c].maxLen = 1
	}
	return tc
}

// listMetaAddr returns the simulated address of class cl's length/metadata
// words.
func (tc *ThreadCache) listMetaAddr(cl uint8) uint64 { return tc.lists[cl].headAddr + 8 }

// pushEmit pushes ptr onto class cl's list, emitting load head, store
// *ptr=head, store head=ptr.
func (tc *ThreadCache) pushEmit(e *uop.Emitter, cl uint8, ptr uint64, addrDep uop.Val) uop.Val {
	l := &tc.lists[cl]
	old := tc.heap.Space.ReadWord(l.headAddr)
	hDep := e.Load(l.headAddr, addrDep)
	e.Store(ptr, addrDep, hDep)
	e.Store(l.headAddr, addrDep, uop.NoDep)
	tc.heap.Space.WriteWord(ptr, old)
	tc.heap.Space.WriteWord(l.headAddr, ptr)
	l.length++
	if l.length < l.lowWater {
		l.lowWater = l.length
	}
	tc.size += tc.heap.SizeMap.ClassSize(cl)
	return hDep
}

// metaUpdateEmit emits the bookkeeping of a fast-path call: the free-list
// length and the cache's total size ("updates to metadata fields (such as
// free list lengths and total size)", Sec. 3.3).
func (tc *ThreadCache) metaUpdateEmit(e *uop.Emitter, cl uint8, dep uop.Val) {
	m := e.Load(tc.listMetaAddr(cl), dep)
	a := e.ALU(m, uop.NoDep)
	e.Store(tc.listMetaAddr(cl), a, uop.NoDep)
	b := e.ALU(uop.NoDep, uop.NoDep) // total-size accounting
	e.Store(tc.listMetaAddr(cl)+8, b, uop.NoDep)
}

// fetchFromCentral refills class cl's list from the central free list and
// returns one object to satisfy the triggering request. Implements
// slow-start: fetch min(maxLen, batch), then grow maxLen.
func (tc *ThreadCache) fetchFromCentral(e *uop.Emitter, cl uint8) uint64 {
	tc.Misses++
	l := &tc.lists[cl]
	batchSize := tc.heap.SizeMap.NumToMove(cl)
	n := l.maxLen
	if n > batchSize {
		n = batchSize
	}
	if n < 1 {
		n = 1
	}
	head, got := tc.heap.Central[cl].RemoveRange(e, n)
	if got == 0 || head == 0 {
		panic("tcmalloc: central cache returned nothing")
	}
	// Return the first object to the caller; splice the rest into the
	// (empty) list.
	first := head
	rest := tc.heap.Space.ReadWord(first)
	dep := e.Load(first, uop.NoDep)
	tc.heap.Space.WriteWord(first, 0)
	if got > 1 {
		tc.heap.Space.WriteWord(l.headAddr, rest)
		e.Store(l.headAddr, dep, uop.NoDep)
		l.length += got - 1
		tc.size += uint64(got-1) * tc.heap.SizeMap.ClassSize(cl)
	}
	// Slow-start growth of the allowed list length.
	if l.maxLen < batchSize {
		l.maxLen++
	} else {
		nl := l.maxLen + batchSize
		if nl > maxDynamicFreeListLength {
			nl = maxDynamicFreeListLength
		}
		nl -= nl % batchSize
		l.maxLen = nl
	}
	e.Store(tc.listMetaAddr(cl), dep, uop.NoDep)
	return first
}

// listTooLong handles a deallocation that pushed a list past its cap:
// release one batch back to the central list.
func (tc *ThreadCache) listTooLong(e *uop.Emitter, cl uint8) {
	tc.ListTooLongs++
	tc.releaseToCentral(e, cl, tc.heap.SizeMap.NumToMove(cl))
	l := &tc.lists[cl]
	// After an overflow, gperftools allows the list to grow again slowly.
	if l.maxLen < maxDynamicFreeListLength {
		l.maxLen += tc.heap.SizeMap.NumToMove(cl) / 2
		if l.maxLen > maxDynamicFreeListLength {
			l.maxLen = maxDynamicFreeListLength
		}
	}
}

// releaseToCentral pops n objects off the list into a chain and hands it to
// the central free list.
func (tc *ThreadCache) releaseToCentral(e *uop.Emitter, cl uint8, n int) {
	l := &tc.lists[cl]
	if n > l.length {
		n = l.length
	}
	if n == 0 {
		return
	}
	var chain uint64
	dep := uop.NoDep
	for i := 0; i < n; i++ {
		head := tc.heap.Space.ReadWord(l.headAddr)
		next := tc.heap.Space.ReadWord(head)
		hDep := e.Load(l.headAddr, dep)
		nDep := e.Load(head, hDep)
		e.Store(l.headAddr, nDep, uop.NoDep)
		tc.heap.Space.WriteWord(l.headAddr, next)
		tc.heap.Space.WriteWord(head, chain)
		e.Store(head, nDep, uop.NoDep)
		chain = head
		dep = nDep
	}
	l.length -= n
	if l.length < l.lowWater {
		l.lowWater = l.length
	}
	tc.size -= uint64(n) * tc.heap.SizeMap.ClassSize(cl)
	// The malloc cache's copies for this class are now stale; the modified
	// allocator invalidates them (one push of NULL, see DESIGN.md).
	if mc := tc.heap.mcFor(tc); mc != nil && !tc.heap.Cfg.Ablate.NoListCache {
		mc.InvalidateClass(cl)
		e.Mallacc(uop.McHdPush, -1, false, 0, dep, 0)
	}
	tc.heap.Central[cl].InsertRange(e, chain, n)
}

// scavenge trims every list to half its low-water mark, invoked when the
// cache exceeds its byte budget — gperftools' Scavenge.
func (tc *ThreadCache) scavenge(e *uop.Emitter) {
	tc.Scavenges++
	for cl := 1; cl < len(tc.lists); cl++ {
		l := &tc.lists[cl]
		drop := l.lowWater / 2
		if drop > 0 {
			tc.releaseToCentral(e, uint8(cl), drop)
			if l.maxLen > 1 {
				l.maxLen--
			}
		}
		l.lowWater = l.length
	}
}

// CheckInvariants walks every list verifying the simulated-memory links
// match the recorded lengths.
func (tc *ThreadCache) CheckInvariants() {
	var bytes uint64
	for cl := 1; cl < len(tc.lists); cl++ {
		l := &tc.lists[cl]
		n := 0
		for obj := tc.heap.Space.ReadWord(l.headAddr); obj != 0; obj = tc.heap.Space.ReadWord(obj) {
			n++
			if n > l.length {
				break
			}
		}
		if n != l.length {
			panic(fmt.Sprintf("tcmalloc: thread %d class %d list length %d != recorded %d", tc.ID, cl, n, l.length))
		}
		bytes += uint64(l.length) * tc.heap.SizeMap.ClassSize(uint8(cl))
	}
	if bytes != tc.size {
		panic(fmt.Sprintf("tcmalloc: thread %d cached bytes %d != recorded %d", tc.ID, bytes, tc.size))
	}
}
