// Package hoard is the third allocator substrate, modeled on Hoard
// (Berger et al., ASPLOS 2000) — the third of the three modern allocators
// the paper names ("Modern allocators like Google's tcmalloc, FreeBSD's
// jemalloc, Hoard, and others were all designed to support robust
// multithreaded performance", Sec. 2).
//
// Hoard's shape differs from both other substrates:
//
//   - memory comes in fixed-size *superblocks* (64 KiB here), each
//     dedicated to one size class, with an in-band LIFO free list;
//
//   - each thread owns a heap of superblocks per class and allocates from
//     the fullest one (concentrating emptiness), taking a per-heap lock on
//     every operation because remote frees land in the owner's heap;
//
//   - when a heap's emptiness crosses the K/f thresholds, its emptiest
//     superblock migrates to a global heap, bounding blowup.
//
// Because a superblock free list is exactly the head/next pointer chase of
// the paper's Figure 7, the same Mallacc instructions apply: mcszlookup
// for the geometric size classes, mchdpop/mchdpush/mcnxtprefetch on the
// current superblock's list. The cached pair is invalidated whenever the
// current superblock changes (an explicit-invalidate situation TCMalloc
// only hits on batch releases).
package hoard

import (
	"fmt"

	"mallacc/internal/core"
	"mallacc/internal/mem"
	"mallacc/internal/stats"
	"mallacc/internal/tcmalloc"
	"mallacc/internal/telemetry"
	"mallacc/internal/uop"
)

// Tunables (Hoard's published defaults, adapted to the simulated scale).
const (
	// SuperblockPages is the superblock size in allocator pages (8 pages
	// = 64 KiB).
	SuperblockPages = 8
	// SuperblockBytes is the superblock size.
	SuperblockBytes = SuperblockPages << mem.PageShift
	// MaxSmall is the largest superblock-served request (half a
	// superblock, per Hoard).
	MaxSmall = SuperblockBytes / 2
	// emptyFraction is Hoard's f: a heap must stay more than 1-f full.
	emptyFraction = 0.25
	// emptyK is Hoard's K: slack superblocks allowed before migration.
	emptyK = 2
)

// Branch sites.
const (
	siteSmall uint32 = iota + 200
	siteSzHit
	sitePopHit
	siteSBEmpty
	siteMigrate
)

// SizeClasses is Hoard's geometric class table (ratio ~1.25, 8-byte
// aligned).
type SizeClasses struct{ sizes []uint64 }

// NewSizeClasses generates the table from 16 B to MaxSmall.
func NewSizeClasses() *SizeClasses {
	sc := &SizeClasses{}
	s := uint64(16)
	for s <= MaxSmall {
		sc.sizes = append(sc.sizes, s)
		n := s + s/4
		n = (n + 7) &^ 7
		if n == s {
			n += 8
		}
		s = n
	}
	if sc.sizes[len(sc.sizes)-1] != MaxSmall {
		sc.sizes = append(sc.sizes, MaxSmall)
	}
	return sc
}

// NumClasses returns the class count.
func (sc *SizeClasses) NumClasses() int { return len(sc.sizes) }

// ClassSize returns class c's rounded size.
func (sc *SizeClasses) ClassSize(c int) uint64 { return sc.sizes[c] }

// ClassFor returns the class serving size, or ok=false for large requests.
func (sc *SizeClasses) ClassFor(size uint64) (int, bool) {
	if size == 0 {
		size = 1
	}
	if size > MaxSmall {
		return 0, false
	}
	// Geometric classes admit a log-time or table lookup; the software
	// fast path models a small loop, Mallacc replaces it entirely.
	lo, hi := 0, len(sc.sizes)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if sc.sizes[mid] < size {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, true
}

// superblock is one fixed-size block carved for a class.
type superblock struct {
	span    *tcmalloc.Span
	class   int
	objSize uint64
	objects int
	used    int
	// head is the in-band LIFO free list head (0 = full... meaning no
	// free objects).
	head uint64
	// owner is the owning heap (-1 = global).
	owner int

	prev, next *superblock
}

func (sb *superblock) fullness() float64 {
	return float64(sb.used) / float64(sb.objects)
}

// sbList is an intrusive list.
type sbList struct{ head *superblock }

func (l *sbList) push(sb *superblock) {
	sb.prev, sb.next = nil, l.head
	if l.head != nil {
		l.head.prev = sb
	}
	l.head = sb
}

func (l *sbList) remove(sb *superblock) {
	if sb.prev != nil {
		sb.prev.next = sb.next
	} else {
		l.head = sb.next
	}
	if sb.next != nil {
		sb.next.prev = sb.prev
	}
	sb.prev, sb.next = nil, nil
}

// classHeap is one thread heap's per-class state.
type classHeap struct {
	// current is the superblock being allocated from (the fullest with
	// space).
	current *superblock
	// others holds this heap's other superblocks for the class.
	others sbList
	// inUse / capacity track the emptiness invariant.
	inUse, capacity int
}

// ThreadHeap is a per-thread Hoard heap.
type ThreadHeap struct {
	ID       int
	heap     *Heap
	classes  []classHeap
	lockAddr uint64
	stack    uint64
	tls      uint64
	sampler  *tcmalloc.Sampler

	Hits, Misses, Migrations uint64
}

// HeapStats counts events.
type HeapStats struct {
	Mallocs, Frees    uint64
	SuperblocksCarved uint64
	MigratedToGlobal  uint64
	PulledFromGlobal  uint64
	LargeAllocs       uint64
	Sampled           uint64
}

// Heap is the Hoard-style allocator.
type Heap struct {
	Space    *mem.Space
	Arena    *mem.Arena
	SC       *SizeClasses
	PageHeap *tcmalloc.PageHeap

	// global holds migrated superblocks per class.
	global     []sbList
	globalLock uint64

	MC        *core.MallocCache
	HWCounter *core.SampleCounter
	Em        *uop.Emitter

	Cfg     Config
	rng     *stats.RNG
	threads []*ThreadHeap
	sbOf    map[uint64]*superblock // span start page -> superblock
	Stats   HeapStats
	// mcOwner guards the malloc-cache contract: the cached pair belongs
	// to one thread heap's current superblocks at a time.
	mcClassSB []*superblock
}

// Config parameterizes the heap.
type Config struct {
	Mode           tcmalloc.Mode
	MallocCache    core.Config
	SampleInterval int64
	Seed           uint64
}

// DefaultConfig returns a baseline configuration.
func DefaultConfig() Config {
	return Config{
		Mode:           tcmalloc.ModeBaseline,
		MallocCache:    core.Config{Entries: 16},
		SampleInterval: tcmalloc.DefaultSampleInterval,
		Seed:           1,
	}
}

// New builds a heap.
func New(cfg Config) *Heap {
	space := mem.NewDefaultSpace()
	arena := mem.NewArena(space, 8<<20)
	h := &Heap{
		Space:    space,
		Arena:    arena,
		SC:       NewSizeClasses(),
		PageHeap: tcmalloc.NewPageHeap(space, arena, tcmalloc.NewPageMap(arena)),
		Cfg:      cfg,
		rng:      stats.NewRNG(cfg.Seed ^ 0x40a8d),
		Em:       uop.NewEmitter(),
		sbOf:     map[uint64]*superblock{},
	}
	h.global = make([]sbList, h.SC.NumClasses())
	h.globalLock = arena.Alloc(64, 64)
	h.mcClassSB = make([]*superblock, h.SC.NumClasses())
	if cfg.Mode == tcmalloc.ModeMallacc {
		h.MC = core.New(cfg.MallocCache)
		h.HWCounter = &core.SampleCounter{}
	}
	return h
}

// NewThread registers a thread heap.
func (h *Heap) NewThread() *ThreadHeap {
	t := &ThreadHeap{
		ID:       len(h.threads),
		heap:     h,
		classes:  make([]classHeap, h.SC.NumClasses()),
		lockAddr: h.Arena.Alloc(64+uint64(h.SC.NumClasses())*16, 64),
		stack:    h.Arena.Alloc(4096, 64),
		tls:      h.Arena.Alloc(8, 8),
		sampler:  tcmalloc.NewSampler(h.rng.Fork(), h.Cfg.SampleInterval, h.Arena.Alloc(64, 64)),
	}
	h.threads = append(h.threads, t)
	return t
}

// RegisterMetrics adds the allocator's event counters to reg under
// "heap.*" (and "mc.*" in accelerated mode).
func (h *Heap) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("heap.mallocs", func() uint64 { return h.Stats.Mallocs })
	reg.Counter("heap.frees", func() uint64 { return h.Stats.Frees })
	reg.Counter("heap.superblocks_carved", func() uint64 { return h.Stats.SuperblocksCarved })
	reg.Counter("heap.migrated_to_global", func() uint64 { return h.Stats.MigratedToGlobal })
	reg.Counter("heap.pulled_from_global", func() uint64 { return h.Stats.PulledFromGlobal })
	reg.Counter("heap.large_mallocs", func() uint64 { return h.Stats.LargeAllocs })
	reg.Counter("heap.sampled", func() uint64 { return h.Stats.Sampled })
	if h.MC != nil {
		h.MC.RegisterMetrics(reg)
	}
}

// invalidateMC drops the cached pair for a class (current-superblock
// change or migration).
func (h *Heap) invalidateMC(class int) {
	if h.MC != nil {
		h.MC.InvalidateClass(uint8(class))
	}
	h.mcClassSB[class] = nil
}

// Malloc services a request from thread th.
func (h *Heap) Malloc(th *ThreadHeap, size uint64) uint64 {
	e := h.Em
	h.Stats.Mallocs++
	if size == 0 {
		size = 1
	}

	e.Step(uop.StepCallOverhead)
	e.Store(th.stack, uop.NoDep, uop.NoDep)
	e.Store(th.stack+8, uop.NoDep, uop.NoDep)
	e.ALU(uop.NoDep, uop.NoDep)
	e.Step(uop.StepOther)
	tls := e.Load(th.tls, uop.NoDep)

	cmp := e.ALU(uop.NoDep, uop.NoDep)
	if size > MaxSmall {
		e.Branch(siteSmall, true, cmp)
		h.Stats.LargeAllocs++
		prev := e.Step(uop.StepOther)
		pages := mem.RoundUp(size, mem.PageSize) >> mem.PageShift
		s := h.PageHeap.New(e, pages)
		e.Step(prev)
		h.epilogue(th)
		return s.StartAddr()
	}
	e.Branch(siteSmall, false, cmp)

	class, rounded, classDep := h.sizeClassStep(size)
	h.samplingStep(th, size)

	// Hoard locks the per-thread heap on every operation (remote frees
	// may race); uncontended RMW.
	lk := e.Load(th.lockAddr, tls)
	e.ALUWithLat(17, lk, uop.NoDep)

	result := h.popStep(th, class, rounded, classDep)

	e.Step(uop.StepOther)
	e.Store(th.lockAddr, uop.NoDep, uop.NoDep) // unlock
	h.epilogue(th)
	return result
}

func (h *Heap) sizeClassStep(size uint64) (class int, rounded uint64, dep uop.Val) {
	e := h.Em
	e.Step(uop.StepSizeClass)
	class, _ = h.SC.ClassFor(size)
	rounded = h.SC.ClassSize(class)
	if h.MC != nil {
		entry, cls, alloc, ok := h.MC.SzLookup(size)
		szDep := e.Mallacc(uop.McSzLookup, entry, ok, 0, uop.NoDep, 0)
		e.Branch(siteSzHit, !ok, szDep)
		if ok {
			if int(cls) != class || alloc != rounded {
				panic(fmt.Sprintf("hoard: malloc cache class %d/%d for size %d (want %d/%d)", cls, alloc, size, class, rounded))
			}
			return class, rounded, szDep
		}
		swDep := h.emitSWClass(size)
		entry = h.MC.SzUpdate(size, rounded, rounded, uint8(class))
		e.Mallacc(uop.McSzUpdate, entry, false, 0, swDep, 0)
		return class, rounded, swDep
	}
	return class, rounded, h.emitSWClass(size)
}

// emitSWClass models Hoard's geometric class computation: a short
// shift/compare cascade (log of a ~1.25 ratio spans a few steps).
func (h *Heap) emitSWClass(size uint64) uop.Val {
	e := h.Em
	dep := e.ALU(uop.NoDep, uop.NoDep)
	dep = e.ALUChain(3, dep)
	return dep
}

func (h *Heap) samplingStep(th *ThreadHeap, size uint64) {
	if h.Cfg.SampleInterval <= 0 {
		return
	}
	e := h.Em
	sampled := th.sampler.Account(size)
	if h.HWCounter != nil {
		h.HWCounter.BytesAccumulated += size
		if sampled {
			h.HWCounter.Interrupts++
		}
	} else {
		e.Step(uop.StepSampling)
		c := e.Load(th.sampler.CounterAddr(), uop.NoDep)
		a := e.ALU(c, uop.NoDep)
		e.Store(th.sampler.CounterAddr(), a, uop.NoDep)
		e.Branch(siteSmall+10, sampled, a)
	}
	if sampled {
		h.Stats.Sampled++
		prev := e.Step(uop.StepOther)
		dep := uop.NoDep
		for i := 0; i < 32; i++ {
			dep = e.Load(th.stack+uint64(i)*16, dep)
			dep = e.ALU(dep, uop.NoDep)
		}
		for i := 0; i < 6; i++ {
			dep = e.ALUWithLat(150, dep, uop.NoDep)
		}
		e.Step(prev)
	}
}

// popStep pops from the current superblock's in-band free list — the
// Figure 7 chain, accelerated exactly like TCMalloc's.
func (h *Heap) popStep(th *ThreadHeap, class int, rounded uint64, classDep uop.Val) uint64 {
	e := h.Em
	e.Step(uop.StepPushPop)
	ch := &th.classes[class]

	if h.MC != nil && h.mcClassSB[class] != nil && h.mcClassSB[class] == ch.current {
		_, hd, nx, ok := h.MC.HdPop(uint8(class))
		popDep := e.Mallacc(uop.McHdPop, h.MC.FindClass(uint8(class)), ok, 0, classDep, 0)
		e.Branch(sitePopHit, !ok, popDep)
		if ok {
			sb := ch.current
			if hd != sb.head {
				panic(fmt.Sprintf("hoard: malloc cache out of sync on class %d: cached %#x real %#x", class, hd, sb.head))
			}
			e.Store(sb.span.MetaAddr, popDep, uop.NoDep) // head update
			sb.head = nx
			sb.used++
			ch.inUse++
			th.Hits++
			if newHead := sb.head; newHead != 0 {
				v := h.Space.ReadWord(newHead)
				en := h.MC.NxtPrefetch(uint8(class), newHead, v)
				e.Mallacc(uop.McNxtPrefetch, en, en >= 0, newHead, popDep, 0)
			}
			return hd
		}
		return h.popSlow(th, class, rounded, classDep, popDep)
	}
	if h.MC != nil {
		// The cached pair (if any) belongs to another superblock era.
		popDep := e.Mallacc(uop.McHdPop, -1, false, 0, classDep, 0)
		e.Branch(sitePopHit, true, popDep)
		return h.popSlow(th, class, rounded, classDep, popDep)
	}
	return h.popSlow(th, class, rounded, classDep, classDep)
}

// popSlow is the software pop: find a usable superblock, pop its list.
func (h *Heap) popSlow(th *ThreadHeap, class int, rounded uint64, dep, _ uop.Val) uint64 {
	e := h.Em
	ch := &th.classes[class]

	sb := ch.current
	// Probe the class-heap header (current-superblock pointer).
	hdrDep := e.Load(th.lockAddr+64+uint64(class)*16, dep)
	if sb == nil || sb.head == 0 {
		e.Branch(siteSBEmpty, true, hdrDep)
		sb = h.refill(th, class)
	} else {
		e.Branch(siteSBEmpty, false, hdrDep)
	}
	// Fig. 7 pop on the superblock list.
	head := sb.head
	next := h.Space.ReadWord(head)
	hDep := e.Load(sb.span.MetaAddr, dep)
	nDep := e.Load(head, hDep)
	e.Store(sb.span.MetaAddr, nDep, uop.NoDep)
	sb.head = next
	sb.used++
	ch.inUse++
	th.Hits++

	// Seed the malloc cache for this superblock era.
	if h.MC != nil {
		h.mcClassSB[class] = sb
		if sb.head != 0 {
			v := h.Space.ReadWord(sb.head)
			en := h.MC.NxtPrefetch(uint8(class), sb.head, v)
			e.Mallacc(uop.McNxtPrefetch, en, en >= 0, sb.head, nDep, 0)
		}
	}
	return head
}

// refill installs a superblock with free objects as current: from this
// heap's others, the global heap, or a fresh carve.
func (h *Heap) refill(th *ThreadHeap, class int) *superblock {
	e := h.Em
	prev := e.Step(uop.StepOther)
	defer e.Step(prev)
	th.Misses++
	ch := &th.classes[class]

	// Retire the exhausted current.
	if ch.current != nil {
		ch.others.push(ch.current)
		ch.current = nil
	}
	h.invalidateMC(class)

	// Fullest superblock with space in this heap.
	var best *superblock
	probe := uop.NoDep
	for sb := ch.others.head; sb != nil; sb = sb.next {
		probe = e.Load(sb.span.MetaAddr, probe)
		if sb.head != 0 && (best == nil || sb.fullness() > best.fullness()) {
			best = sb
		}
	}
	if best != nil {
		ch.others.remove(best)
		ch.current = best
		return best
	}

	// Global heap.
	lk := e.Load(h.globalLock, uop.NoDep)
	e.ALUWithLat(17, lk, uop.NoDep)
	if sb := h.global[class].head; sb != nil {
		h.global[class].remove(sb)
		sb.owner = th.ID
		ch.current = sb
		ch.inUse += sb.used
		ch.capacity += sb.objects
		h.Stats.PulledFromGlobal++
		e.Store(h.globalLock, lk, uop.NoDep)
		return sb
	}
	e.Store(h.globalLock, lk, uop.NoDep)

	// Carve a fresh superblock.
	span := h.PageHeap.New(e, SuperblockPages)
	objSize := h.SC.ClassSize(class)
	n := int(uint64(SuperblockBytes) / objSize)
	sb := &superblock{span: span, class: class, objSize: objSize, objects: n, owner: th.ID}
	base := span.StartAddr()
	var headVal uint64
	dep := e.ALU(uop.NoDep, uop.NoDep)
	for i := n - 1; i >= 0; i-- {
		obj := base + uint64(i)*objSize
		h.Space.WriteWord(obj, headVal)
		dep = e.ALU(dep, uop.NoDep)
		e.Store(obj, dep, uop.NoDep)
		headVal = obj
	}
	sb.head = headVal
	h.sbOf[span.Start] = sb
	ch.current = sb
	ch.capacity += n
	h.Stats.SuperblocksCarved++
	return sb
}

// Free returns ptr; remote frees land in the owner's heap under its lock.
func (h *Heap) Free(th *ThreadHeap, ptr uint64, size uint64) {
	e := h.Em
	h.Stats.Frees++

	e.Step(uop.StepCallOverhead)
	e.Store(th.stack, uop.NoDep, uop.NoDep)
	e.ALU(uop.NoDep, uop.NoDep)
	e.Step(uop.StepOther)
	tls := e.Load(th.tls, uop.NoDep)

	// Hoard always finds the superblock from the address (size hints
	// can't locate the owner).
	span, walkDep := h.PageHeap.PageMap().EmitGet(e, ptr>>mem.PageShift, tls)
	if span == nil {
		panic(fmt.Sprintf("hoard: free of unknown pointer %#x", ptr))
	}
	sb := h.sbOf[span.Start]
	if sb == nil {
		e.Branch(siteSmall, true, walkDep)
		prev := e.Step(uop.StepOther)
		h.PageHeap.Delete(e, span)
		e.Step(prev)
		h.epilogue(th)
		return
	}
	e.Branch(siteSmall, false, walkDep)
	class := sb.class

	// Lock the owning heap.
	owner := th
	if sb.owner >= 0 && sb.owner != th.ID {
		owner = h.threads[sb.owner]
	}
	lk := e.Load(owner.lockAddr, walkDep)
	e.ALUWithLat(17, lk, uop.NoDep)

	// Fig. 7 push onto the superblock list.
	e.Step(uop.StepPushPop)
	hDep := e.Load(sb.span.MetaAddr, walkDep)
	e.Store(ptr, walkDep, hDep)
	e.Store(sb.span.MetaAddr, walkDep, uop.NoDep)
	h.Space.WriteWord(ptr, sb.head)
	sb.head = ptr
	sb.used--
	if sb.owner >= 0 {
		ch := &h.threads[sb.owner].classes[class]
		ch.inUse--
		if h.MC != nil && h.mcClassSB[class] == sb && owner == th {
			en := h.MC.HdPush(uint8(class), ptr)
			e.Mallacc(uop.McHdPush, en, en >= 0, 0, hDep, 0)
		} else if h.mcClassSB[class] == sb {
			// Remote free into the cached superblock: invalidate.
			h.invalidateMC(class)
		}
		h.maybeMigrate(owner, class)
	}

	e.Step(uop.StepOther)
	e.Store(owner.lockAddr, uop.NoDep, uop.NoDep)
	h.epilogue(th)
}

// maybeMigrate enforces the emptiness invariant: if the heap holds more
// than K superblocks of slack and is less than (1-f) full, the emptiest
// superblock moves to the global heap.
func (h *Heap) maybeMigrate(owner *ThreadHeap, class int) {
	e := h.Em
	ch := &owner.classes[class]
	slack := ch.capacity - ch.inUse
	sbObjs := 0
	if ch.current != nil {
		sbObjs = ch.current.objects
	} else if ch.others.head != nil {
		sbObjs = ch.others.head.objects
	}
	if sbObjs == 0 {
		return
	}
	tooEmpty := slack > emptyK*sbObjs && float64(ch.inUse) < (1-emptyFraction)*float64(ch.capacity)
	dep := e.Load(owner.lockAddr+8, uop.NoDep)
	e.Branch(siteMigrate, tooEmpty, dep)
	if !tooEmpty {
		return
	}
	// Find the emptiest superblock (excluding current).
	var victim *superblock
	for sb := ch.others.head; sb != nil; sb = sb.next {
		if victim == nil || sb.fullness() < victim.fullness() {
			victim = sb
		}
	}
	if victim == nil {
		return
	}
	ch.others.remove(victim)
	ch.capacity -= victim.objects
	ch.inUse -= victim.used
	victim.owner = -1
	prev := e.Step(uop.StepOther)
	lk := e.Load(h.globalLock, uop.NoDep)
	e.ALUWithLat(17, lk, uop.NoDep)
	h.global[class].push(victim)
	e.Store(h.globalLock, lk, uop.NoDep)
	e.Step(prev)
	if h.mcClassSB[class] == victim {
		h.invalidateMC(class)
	}
	owner.Migrations++
	h.Stats.MigratedToGlobal++
}

func (h *Heap) epilogue(th *ThreadHeap) {
	e := h.Em
	e.ALU(uop.NoDep, uop.NoDep)
	e.Step(uop.StepCallOverhead)
	e.Load(th.stack, uop.NoDep)
	e.Load(th.stack+8, uop.NoDep)
	e.ALU(uop.NoDep, uop.NoDep)
	e.Step(uop.StepOther)
}

// CheckInvariants validates superblock accounting and free-list
// integrity.
func (h *Heap) CheckInvariants() {
	for _, sb := range h.sbOf {
		n := 0
		for obj := sb.head; obj != 0; obj = h.Space.ReadWord(obj) {
			n++
			if n > sb.objects {
				panic(fmt.Sprintf("hoard: superblock class %d free list cycle", sb.class))
			}
		}
		if n != sb.objects-sb.used {
			panic(fmt.Sprintf("hoard: superblock class %d free %d != objects %d - used %d",
				sb.class, n, sb.objects, sb.used))
		}
	}
	for _, th := range h.threads {
		for c := range th.classes {
			ch := &th.classes[c]
			used, capa := 0, 0
			if ch.current != nil {
				used += ch.current.used
				capa += ch.current.objects
			}
			for sb := ch.others.head; sb != nil; sb = sb.next {
				used += sb.used
				capa += sb.objects
			}
			if used != ch.inUse || capa != ch.capacity {
				panic(fmt.Sprintf("hoard: thread %d class %d accounting %d/%d vs %d/%d",
					th.ID, c, used, capa, ch.inUse, ch.capacity))
			}
		}
	}
	h.PageHeap.CheckInvariants()
}
