package tcmalloc

import (
	"fmt"

	"mallacc/internal/mem"
	"mallacc/internal/uop"
)

// maxTransferEntries bounds the per-class transfer cache (gperftools
// kMaxNumTransferEntries).
const maxTransferEntries = 64

// batch is one transfer-cache slot: a chain of NumToMove objects already
// linked through simulated memory.
type batch struct {
	head  uint64
	count int
}

// CentralFreeList is the per-size-class shared pool: a transfer cache of
// ready-made batches in front of span-resident object lists, refilled from
// the page heap. All operations here are the paper's "orders of magnitude
// slower" middle tier, guarded by a lock.
type CentralFreeList struct {
	class     uint8
	objSize   uint64
	pagesPer  uint64
	batchSize int

	lockAddr uint64
	headAddr uint64 // metadata block for counters

	// transfer cache slots.
	slots []batch

	// nonempty holds spans with free objects; empty holds fully allocated
	// spans.
	nonempty spanList
	empty    spanList

	heap *Heap

	// lockHeldAt records the emitter position at acquisition so unlock can
	// report the hold length (in uops) to the heap's LockModel.
	lockHeldAt int

	// Stats
	TransferHits   uint64
	TransferMisses uint64
	SpansRequested uint64
	SpansReturned  uint64
	FreeObjects    int
}

func newCentralFreeList(h *Heap, class uint8) *CentralFreeList {
	return &CentralFreeList{
		class:     class,
		objSize:   h.SizeMap.ClassSize(class),
		pagesPer:  h.SizeMap.ClassPages(class),
		batchSize: h.SizeMap.NumToMove(class),
		lockAddr:  h.Arena.Alloc(64, 64),
		headAddr:  h.Arena.Alloc(64, 64),
		heap:      h,
	}
}

func (c *CentralFreeList) lock(e *uop.Emitter) uop.Val {
	lk := e.Load(c.lockAddr, uop.NoDep)
	v := e.ALUWithLat(17, lk, uop.NoDep)
	if lm := c.heap.Lock; lm != nil {
		if wait := lm.Acquire(LockCentral, c.class); wait > 0 {
			v = e.Stall(wait, v)
		}
		c.lockHeldAt = e.Len()
	}
	return v
}

func (c *CentralFreeList) unlock(e *uop.Emitter) {
	if lm := c.heap.Lock; lm != nil {
		lm.Release(LockCentral, c.class, e.Len()-c.lockHeldAt)
	}
	e.Store(c.lockAddr, uop.NoDep, uop.NoDep)
}

// RemoveRange hands out a chain of up to n objects (head-linked in
// simulated memory) and its length. A full-batch request that hits the
// transfer cache is nearly free; otherwise objects come off span free
// lists, populating a new span from the page heap when dry.
func (c *CentralFreeList) RemoveRange(e *uop.Emitter, n int) (head uint64, count int) {
	if n == c.batchSize && len(c.slots) > 0 {
		// Transfer-cache hit: one locked slot pop.
		dep := c.lock(e)
		e.Branch(siteTransferHit, true, dep)
		b := c.slots[len(c.slots)-1]
		c.slots = c.slots[:len(c.slots)-1]
		e.Load(c.headAddr, dep)
		e.Store(c.headAddr, dep, uop.NoDep)
		c.unlock(e)
		c.TransferHits++
		c.FreeObjects -= b.count
		return b.head, b.count
	}
	c.TransferMisses++
	dep := c.lock(e)
	e.Branch(siteTransferHit, false, dep)

	var chain uint64
	got := 0
	for got < n {
		s := c.spanWithFree(e)
		if s == nil {
			c.populate(e)
			s = c.spanWithFree(e)
			if s == nil {
				break
			}
		}
		// Pop one object from the span's free list: the dependent
		// load/load/store of Figure 7, against cold span memory.
		hdr := e.Load(s.MetaAddr, uop.NoDep)
		obj := s.FreeHead
		nxt := c.heap.Space.ReadWord(obj)
		nxtDep := e.Load(obj, hdr)
		e.Store(s.MetaAddr, nxtDep, uop.NoDep)
		s.FreeHead = nxt
		s.FreeCount--
		s.Refcount++
		if s.FreeCount == 0 {
			c.nonempty.remove(s)
			c.empty.pushFront(s)
		}
		// Link onto the outgoing chain.
		c.heap.Space.WriteWord(obj, chain)
		e.Store(obj, nxtDep, uop.NoDep)
		chain = obj
		got++
		e.Branch(siteFetchLoop, got < n, nxtDep)
	}
	c.unlock(e)
	c.FreeObjects -= got
	return chain, got
}

// InsertRange takes back a chain of count objects. Full batches go to the
// transfer cache when there is room; otherwise each object returns to its
// owning span (found through the page map), and spans whose last object
// comes home are released to the page heap.
func (c *CentralFreeList) InsertRange(e *uop.Emitter, head uint64, count int) {
	if count == c.batchSize && len(c.slots) < maxTransferEntries {
		dep := c.lock(e)
		e.Branch(siteTransferHit, true, dep)
		c.slots = append(c.slots, batch{head: head, count: count})
		e.Store(c.headAddr, dep, uop.NoDep)
		c.unlock(e)
		c.FreeObjects += count
		return
	}
	dep := c.lock(e)
	e.Branch(siteTransferHit, false, dep)
	obj := head
	for i := 0; i < count; i++ {
		if obj == 0 {
			panic("tcmalloc: short chain in InsertRange")
		}
		next := c.heap.Space.ReadWord(obj)
		nextDep := e.Load(obj, dep)
		c.releaseToSpan(e, obj, nextDep)
		obj = next
		e.Branch(siteReleaseLoop, i+1 < count, nextDep)
	}
	c.unlock(e)
	c.FreeObjects += count
}

// releaseToSpan returns one object to its span's free list.
func (c *CentralFreeList) releaseToSpan(e *uop.Emitter, obj uint64, dep uop.Val) {
	s, walkDep := c.heap.PageHeap.PageMap().EmitGet(e, obj>>mem.PageShift, dep)
	if s == nil {
		panic(fmt.Sprintf("tcmalloc: object %#x has no span", obj))
	}
	if s.FreeCount == 0 && s.Location == SpanInUse {
		// Span moves from empty back to nonempty.
		c.empty.remove(s)
		c.nonempty.pushFront(s)
	}
	c.heap.Space.WriteWord(obj, s.FreeHead)
	e.Store(obj, walkDep, uop.NoDep)
	e.Store(s.MetaAddr, walkDep, uop.NoDep)
	s.FreeHead = obj
	s.FreeCount++
	s.Refcount--
	if s.Refcount == 0 {
		// Whole span free: unlink its objects and give the pages back.
		c.nonempty.remove(s)
		c.releaseSpanObjects(s)
		c.FreeObjects -= s.FreeCount
		s.FreeHead = 0
		s.FreeCount = 0
		c.heap.PageHeap.Delete(e, s)
		c.SpansReturned++
	}
}

// releaseSpanObjects clears the in-band next pointers of a span being
// returned so the simulated word store does not accumulate stale entries.
func (c *CentralFreeList) releaseSpanObjects(s *Span) {
	obj := s.FreeHead
	for obj != 0 {
		next := c.heap.Space.ReadWord(obj)
		c.heap.Space.WriteWord(obj, 0)
		obj = next
	}
}

// spanWithFree returns a span that has free objects, or nil.
func (c *CentralFreeList) spanWithFree(e *uop.Emitter) *Span {
	dep := e.Load(c.headAddr, uop.NoDep)
	if c.nonempty.empty() {
		e.Branch(siteSpanHasFree, false, dep)
		return nil
	}
	e.Branch(siteSpanHasFree, true, dep)
	return c.nonempty.head
}

// populate fetches a fresh span from the page heap and carves it into
// linked objects — the expensive "breaks up the span into appropriately
// sized chunks" path of Sec. 3.1.
func (c *CentralFreeList) populate(e *uop.Emitter) {
	s := c.heap.PageHeap.New(e, c.pagesPer)
	s.SizeClass = c.class
	c.SpansRequested++
	base := s.StartAddr()
	nObjs := int(s.ByteLen() / c.objSize)
	// Carve: link every object through its first word, last first so the
	// list runs in address order.
	var headVal uint64
	dep := e.ALU(uop.NoDep, uop.NoDep)
	for i := nObjs - 1; i >= 0; i-- {
		obj := base + uint64(i)*c.objSize
		c.heap.Space.WriteWord(obj, headVal)
		dep = e.ALU(dep, uop.NoDep)
		e.Store(obj, dep, uop.NoDep)
		headVal = obj
	}
	e.Branch(siteCarveLoop, false, dep)
	s.FreeHead = headVal
	s.FreeCount = nObjs
	s.Refcount = 0
	c.nonempty.pushFront(s)
	c.FreeObjects += nObjs
	e.Store(s.MetaAddr, dep, uop.NoDep)
}

// CheckInvariants verifies span accounting; tests call it.
func (c *CentralFreeList) CheckInvariants() {
	count := 0
	for s := c.nonempty.head; s != nil; s = s.next {
		if s.FreeCount == 0 {
			panic("tcmalloc: empty span on nonempty list")
		}
		n := 0
		for obj := s.FreeHead; obj != 0; obj = c.heap.Space.ReadWord(obj) {
			n++
			if n > s.FreeCount {
				break
			}
		}
		if n != s.FreeCount {
			panic(fmt.Sprintf("tcmalloc: span free list length %d != recorded %d (class %d)", n, s.FreeCount, c.class))
		}
		count += s.FreeCount
	}
	for s := c.empty.head; s != nil; s = s.next {
		if s.FreeCount != 0 {
			panic("tcmalloc: span with free objects on empty list")
		}
	}
	for _, b := range c.slots {
		count += b.count
	}
	if count != c.FreeObjects {
		panic(fmt.Sprintf("tcmalloc: central class %d free object accounting: counted %d, recorded %d", c.class, count, c.FreeObjects))
	}
}
