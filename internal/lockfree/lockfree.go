// Package lockfree models a Blelloch–Wei-style concurrent fixed-size
// allocator (arXiv:2008.04296) as an alternative backend to the TCMalloc
// substrate: one lock-free Treiber stack per size class, linked through
// simulated memory, with constant-time allocation and deallocation and no
// central-list/pageheap lock path at all.
//
// The shape of the cost model:
//
//   - Alloc pops the class stack: load head, load head's link word, CAS the
//     head forward. Free pushes: load head, store the link word, CAS the
//     head back. A CAS is the atomic-RMW idiom used across the tree (a
//     17-cycle ALU); under multicore contention the engine installs a
//     Contention model whose per-class retry estimate expands into failed
//     CAS + cache-line-transfer + reload sequences, mirroring how the
//     spinlock table prices the TCMalloc locks it replaces.
//   - An empty stack does NOT walk to a central list: the class carves a
//     fresh block off a per-class slab with a fetch-add on the bump
//     pointer — still constant time. Slab exhaustion triggers an sbrk
//     refill, the only non-constant event in the design, tagged StepOther
//     like every other slow path in the tree.
//   - Every block carries an 8-byte class header written once at carve
//     time, so Free is one dependent load away from the right stack — no
//     pagemap walk, no size recomputation.
//
// Size-class mapping reuses the TCMalloc SizeMap (the Figure-5 two-load
// sequence), so ModeMallacc can accelerate it with the malloc cache's
// SzLookup/SzUpdate in raw-size mode. Head caching (HdPop/HdPush) is
// deliberately not offered: a cached stack head goes stale the moment a
// peer core pops the same class, so only the size-class half of the
// accelerator applies to this backend. That asymmetry is itself a finding
// of the design-space study.
package lockfree

import (
	"fmt"

	"mallacc/internal/core"
	"mallacc/internal/mem"
	"mallacc/internal/tcmalloc"
	"mallacc/internal/telemetry"
	"mallacc/internal/uop"
)

// Branch sites. Site-id spaces across allocators must stay distinct and
// below the CPU's 4096-entry predictor table: tcmalloc uses iota+1,
// jemalloc iota+100, hoard iota+200; lockfree takes iota+300.
const (
	siteLarge uint32 = iota + 300
	siteSzBranch
	siteMcSzHit
	siteStackEmpty
	sitePopCAS
	sitePushCAS
	siteSlabFull
	siteLargeFree
)

// largeBit marks a header word as a large (page-rounded, sbrk-backed)
// allocation; the low bits then hold the mapped byte length.
const largeBit = uint64(1) << 63

// defaultSlabBlocks is how many blocks a slab refill provisions per class.
const defaultSlabBlocks = 64

// Config parameterizes the lock-free heap. Mode semantics match the
// TCMalloc substrate: ModeMallacc enables the malloc-cache size-class
// instructions (raw-size keyed; head caching does not apply — see the
// package comment).
type Config struct {
	Mode        tcmalloc.Mode
	MallocCache core.Config
	// SlabBlocks is the number of blocks carved per slab refill
	// (default 64).
	SlabBlocks int
	Seed       uint64
}

// DefaultConfig returns a baseline configuration.
func DefaultConfig() Config {
	return Config{Mode: tcmalloc.ModeBaseline, MallocCache: core.DefaultConfig(), SlabBlocks: defaultSlabBlocks, Seed: 1}
}

// Stats counts allocator events.
type Stats struct {
	Allocs      uint64
	Frees       uint64
	PopHits     uint64 // allocations served by a stack pop
	Carves      uint64 // allocations served by a slab carve
	SlabRefills uint64
	LargeAllocs uint64
	LargeFrees  uint64
	CASAttempts uint64
	CASRetries  uint64
}

// Contention estimates how many times a CAS on a class's stack head fails
// before succeeding. The single-core harness leaves it nil (zero retries);
// the multicore engine installs an analytic model fed by which cores
// touched the class recently, mirroring the spinlock table it replaces.
type Contention interface {
	Retries(class uint8) int
}

// classState is the per-size-class allocator state. The head and bump
// words live in simulated memory (each on its own cache line, as the
// paper's implementation pads them) so the emitted loads and stores hit
// real addresses; slab bounds and counts are host-side bookkeeping.
type classState struct {
	headAddr uint64 // simulated word: top of the free stack (0 = empty)
	bumpAddr uint64 // simulated word: next carve address (0 = no slab yet)
	slabEnd  uint64
	blkSize  uint64 // class size + 8-byte header, 8-aligned
	carved   uint64
	freeLen  uint64
}

// Thread holds the per-thread addresses the call prologue/epilogue touch.
// Unlike a TCMalloc ThreadCache it owns no allocator state: all state is
// shared and lock-free.
type Thread struct {
	stackAddr uint64
	tlsAddr   uint64
}

// Heap is the lock-free allocator instance.
type Heap struct {
	Space   *mem.Space
	Arena   *mem.Arena
	SizeMap *tcmalloc.SizeMap
	Cfg     Config
	Em      *uop.Emitter
	// MC is the malloc cache in ModeMallacc (size-class instructions
	// only); the multicore engine swaps in the active core's instance.
	MC *core.MallocCache
	// Contention, when non-nil, prices CAS retries (see the interface).
	Contention Contention
	Stats      Stats

	classes []classState
}

// New builds a heap. The size map is TCMalloc's, so both backends agree on
// what "the same trace" allocates.
func New(cfg Config) *Heap {
	if cfg.SlabBlocks <= 0 {
		cfg.SlabBlocks = defaultSlabBlocks
	}
	space := mem.NewDefaultSpace()
	arena := mem.NewArena(space, 8<<20)
	h := &Heap{
		Space: space,
		Arena: arena,
		Cfg:   cfg,
		Em:    uop.NewEmitter(),
	}
	h.SizeMap = tcmalloc.NewSizeMap(arena)
	n := h.SizeMap.NumClasses()
	h.classes = make([]classState, n)
	for c := 1; c < n; c++ {
		cs := &h.classes[c]
		cs.blkSize = mem.RoundUp(h.SizeMap.ClassSize(uint8(c))+8, 8)
		cs.headAddr = arena.Alloc(8, 64)
		cs.bumpAddr = arena.Alloc(8, 64)
	}
	if cfg.Mode == tcmalloc.ModeMallacc {
		mcCfg := cfg.MallocCache
		mcCfg.IndexMode = false // raw-size keys: no Figure-5 index here
		h.MC = core.New(mcCfg)
	}
	return h
}

// NewThread registers a new thread.
func (h *Heap) NewThread() *Thread {
	t := &Thread{}
	t.stackAddr = h.Arena.Alloc(4096, 64)
	t.tlsAddr = h.Arena.Alloc(8, 8)
	return t
}

// Alloc allocates size bytes for thread t and returns the payload address.
func (h *Heap) Alloc(t *Thread, size uint64) uint64 {
	e := h.Em
	h.Stats.Allocs++
	if size == 0 {
		size = 1
	}

	// Prologue: spill two registers, frame setup, TLS pointer.
	e.Step(uop.StepCallOverhead)
	e.Store(t.stackAddr, uop.NoDep, uop.NoDep)
	e.Store(t.stackAddr+8, uop.NoDep, uop.NoDep)
	e.ALU(uop.NoDep, uop.NoDep)
	e.Step(uop.StepOther)
	tls := e.Load(t.tlsAddr, uop.NoDep)

	cmp := e.ALU(uop.NoDep, uop.NoDep)
	if size > tcmalloc.MaxSize {
		e.Branch(siteLarge, true, cmp)
		h.Stats.LargeAllocs++
		prev := e.Step(uop.StepOther)
		ptr := h.largeAlloc(size, cmp)
		e.Step(prev)
		h.epilogue(t)
		return ptr
	}
	e.Branch(siteLarge, false, cmp)

	class, _, classDep := h.sizeClassStep(size)
	cs := &h.classes[class]

	// Pop the class stack: load head, load its link, CAS head to link.
	e.Step(uop.StepPushPop)
	addrDep := e.ALU(classDep, tls)
	headDep := e.Load(cs.headAddr, addrDep)
	head := h.Space.ReadWord(cs.headAddr)
	empty := e.ALU(headDep, uop.NoDep)
	if head != 0 {
		e.Branch(siteStackEmpty, false, empty)
		nextDep := e.Load(head, headDep)
		next := h.Space.ReadWord(head)
		h.emitCAS(class, sitePopCAS, cs.headAddr, headDep, nextDep)
		h.Space.WriteWord(cs.headAddr, next)
		h.Space.WriteWord(head, 0)
		cs.freeLen--
		h.Stats.PopHits++
		h.epilogue(t)
		return head
	}
	e.Branch(siteStackEmpty, true, empty)

	// Empty stack: carve a block off the class slab with a fetch-add on
	// the bump word — still constant time.
	h.Stats.Carves++
	bumpDep := e.Load(cs.bumpAddr, empty)
	xadd := e.ALUWithLat(17, bumpDep, uop.NoDep)
	bump := h.Space.ReadWord(cs.bumpAddr)
	if bump == 0 || bump+cs.blkSize > cs.slabEnd {
		e.Branch(siteSlabFull, true, xadd)
		prev := e.Step(uop.StepOther)
		h.refillSlab(cs, xadd)
		e.Step(prev)
		bump = h.Space.ReadWord(cs.bumpAddr)
	} else {
		e.Branch(siteSlabFull, false, xadd)
	}
	h.Space.WriteWord(cs.bumpAddr, bump+cs.blkSize)
	// Stamp the class header once; it survives push/pop cycles.
	e.Store(bump, xadd, uop.NoDep)
	h.Space.WriteWord(bump, uint64(class))
	cs.carved++
	h.epilogue(t)
	return bump + 8
}

// Free returns ptr (an address handed out by Alloc) to its class stack.
func (h *Heap) Free(t *Thread, ptr uint64) {
	e := h.Em
	h.Stats.Frees++

	// Prologue: free spills one register.
	e.Step(uop.StepCallOverhead)
	e.Store(t.stackAddr, uop.NoDep, uop.NoDep)
	e.ALU(uop.NoDep, uop.NoDep)

	// The class header is one load behind the pointer — no pagemap walk.
	e.Step(uop.StepOther)
	hdrDep := e.Load(ptr-8, uop.NoDep)
	hdr := h.Space.ReadWord(ptr - 8)
	cmp := e.ALU(hdrDep, uop.NoDep)
	if hdr&largeBit != 0 {
		e.Branch(siteLargeFree, true, cmp)
		h.Stats.LargeFrees++
		prev := e.Step(uop.StepOther)
		e.ALUChain(3, cmp) // unmap bookkeeping
		h.Space.WriteWord(ptr-8, 0)
		e.Step(prev)
		h.epilogueFree(t)
		return
	}
	e.Branch(siteLargeFree, false, cmp)

	class := uint8(hdr)
	if class == 0 || int(class) >= len(h.classes) {
		panic(fmt.Sprintf("lockfree: free of %#x with header %#x (not an allocated block)", ptr, hdr))
	}
	cs := &h.classes[class]

	// Push: load head, link the block to it, CAS head to the block.
	e.Step(uop.StepPushPop)
	headDep := e.Load(cs.headAddr, cmp)
	head := h.Space.ReadWord(cs.headAddr)
	link := e.Store(ptr, hdrDep, headDep)
	h.Space.WriteWord(ptr, head)
	h.emitCAS(class, sitePushCAS, cs.headAddr, headDep, link)
	h.Space.WriteWord(cs.headAddr, ptr)
	cs.freeLen++
	h.epilogueFree(t)
}

// sizeClassStep maps size to (class, rounded), emitting either the
// software Figure-5 sequence or the accelerated SzLookup/SzUpdate pair.
func (h *Heap) sizeClassStep(size uint64) (class uint8, rounded uint64, dep uop.Val) {
	e := h.Em
	e.Step(uop.StepSizeClass)
	class, rounded, ok := h.SizeMap.ClassFor(size)
	if !ok {
		panic(fmt.Sprintf("lockfree: size %d has no class", size))
	}
	if h.MC != nil {
		entry, cls, alloc, hit := h.MC.SzLookup(size)
		szDep := e.Mallacc(uop.McSzLookup, entry, hit, 0, uop.NoDep, 0)
		e.Branch(siteMcSzHit, !hit, szDep)
		if hit {
			if cls != class || alloc != rounded {
				panic(fmt.Sprintf("lockfree: malloc cache returned %d/%d for size %d (want %d/%d)",
					cls, alloc, size, class, rounded))
			}
			return class, rounded, szDep
		}
		swDep := h.emitSWSizeClass(size, class)
		entry = h.MC.SzUpdate(size, rounded, rounded, class)
		e.Mallacc(uop.McSzUpdate, entry, false, 0, swDep, 0)
		return class, rounded, swDep
	}
	return class, rounded, h.emitSWSizeClass(size, class)
}

// emitSWSizeClass emits the Figure-5 software mapping: compare, branch on
// the small/large index formula, index arithmetic, class-array load, and
// the dependent class-to-size load.
func (h *Heap) emitSWSizeClass(size uint64, class uint8) uop.Val {
	e := h.Em
	cmp := e.ALU(uop.NoDep, uop.NoDep)
	e.Branch(siteSzBranch, size > tcmalloc.MaxSmallSize, cmp)
	add := e.ALU(cmp, uop.NoDep)
	idx := e.ALU(add, uop.NoDep)
	l1 := e.Load(h.SizeMap.ClassArrayAddr()+tcmalloc.ClassIndex(size), idx)
	return e.Load(h.SizeMap.ClassToSizeAddr()+uint64(class)*8, l1)
}

// emitCAS emits one successful compare-and-swap on a stack head, preceded
// by however many failed attempts the contention model predicts. Each
// retry costs a failed CAS (atomic RMW), the cache-line transfer that
// brings the fresh head over from the winning core, and the reload.
func (h *Heap) emitCAS(class uint8, site uint32, addr uint64, oldDep, newDep uop.Val) uop.Val {
	retries := 0
	if h.Contention != nil {
		retries = h.Contention.Retries(class)
	}
	h.Stats.CASAttempts += uint64(retries) + 1
	h.Stats.CASRetries += uint64(retries)
	e := h.Em
	dep := oldDep
	for i := 0; i < retries; i++ {
		fail := e.ALUWithLat(17, dep, newDep)
		e.Branch(site, true, fail)
		xfer := e.ALUWithLat(40, fail, uop.NoDep)
		dep = e.Load(addr, xfer)
	}
	ok := e.ALUWithLat(17, dep, newDep)
	e.Branch(site, false, ok)
	return ok
}

// largeAlloc maps a page-rounded region directly and stamps a large
// header. Large blocks bypass the stacks entirely, as in the paper.
func (h *Heap) largeAlloc(size uint64, dep uop.Val) uint64 {
	bytes := mem.RoundUp(size+8, mem.PageSize)
	base := h.Space.Sbrk(bytes)
	e := h.Em
	e.ALUChain(4, dep) // mmap bookkeeping
	e.Store(base, dep, uop.NoDep)
	h.Space.WriteWord(base, largeBit|bytes)
	return base + 8
}

// refillSlab points the class bump word at a fresh sbrk'd slab.
func (h *Heap) refillSlab(cs *classState, dep uop.Val) {
	h.Stats.SlabRefills++
	bytes := mem.RoundUp(uint64(h.Cfg.SlabBlocks)*cs.blkSize, mem.PageSize)
	base := h.Space.Sbrk(bytes)
	e := h.Em
	e.ALUChain(6, dep) // sbrk + arena bookkeeping
	e.Store(cs.bumpAddr, dep, uop.NoDep)
	h.Space.WriteWord(cs.bumpAddr, base)
	cs.slabEnd = base + bytes
}

// epilogue restores the two spilled registers and returns.
func (h *Heap) epilogue(t *Thread) {
	e := h.Em
	e.ALU(uop.NoDep, uop.NoDep)
	e.Step(uop.StepCallOverhead)
	e.Load(t.stackAddr, uop.NoDep)
	e.Load(t.stackAddr+8, uop.NoDep)
	e.ALU(uop.NoDep, uop.NoDep)
	e.Step(uop.StepOther)
}

// epilogueFree restores the single spilled register and returns.
func (h *Heap) epilogueFree(t *Thread) {
	e := h.Em
	e.ALU(uop.NoDep, uop.NoDep)
	e.Step(uop.StepCallOverhead)
	e.Load(t.stackAddr, uop.NoDep)
	e.ALU(uop.NoDep, uop.NoDep)
	e.Step(uop.StepOther)
}

// FreeBlocks returns the total number of blocks parked on class stacks.
func (h *Heap) FreeBlocks() uint64 {
	var n uint64
	for i := range h.classes {
		n += h.classes[i].freeLen
	}
	return n
}

// CarvedBlocks returns the total number of blocks ever carved from slabs.
func (h *Heap) CarvedBlocks() uint64 {
	var n uint64
	for i := range h.classes {
		n += h.classes[i].carved
	}
	return n
}

// CheckInvariants walks every class stack through simulated memory and
// panics on corruption: a stack longer than its bookkeeping says (a
// cycle, i.e. a double free), a node whose header names another class
// (cross-class leak), or a node appearing on two stacks (double
// ownership).
func (h *Heap) CheckInvariants() {
	seen := make(map[uint64]uint8)
	for c := 1; c < len(h.classes); c++ {
		cs := &h.classes[c]
		if cs.freeLen > cs.carved {
			panic(fmt.Sprintf("lockfree: class %d has %d free of %d carved blocks", c, cs.freeLen, cs.carved))
		}
		var walked uint64
		for node := h.Space.ReadWord(cs.headAddr); node != 0; node = h.Space.ReadWord(node) {
			if walked >= cs.freeLen {
				panic(fmt.Sprintf("lockfree: class %d stack longer than freeLen %d (cycle/double free)", c, cs.freeLen))
			}
			if prev, dup := seen[node]; dup {
				panic(fmt.Sprintf("lockfree: block %#x on class %d and class %d stacks", node, prev, c))
			}
			seen[node] = uint8(c)
			if hdr := h.Space.ReadWord(node - 8); hdr != uint64(c) {
				panic(fmt.Sprintf("lockfree: block %#x on class %d stack has header %#x", node, c, hdr))
			}
			walked++
		}
		if walked != cs.freeLen {
			panic(fmt.Sprintf("lockfree: class %d stack walk found %d blocks, freeLen says %d", c, walked, cs.freeLen))
		}
	}
}

// RegisterMetrics adds the allocator's counters to reg under "lockfree.*"
// with OpenMetrics help text.
func (h *Heap) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("lockfree.allocs", func() uint64 { return h.Stats.Allocs })
	reg.Describe("lockfree.allocs", "Allocations served by the lock-free backend.")
	reg.Counter("lockfree.frees", func() uint64 { return h.Stats.Frees })
	reg.Describe("lockfree.frees", "Deallocations returned to the lock-free backend.")
	reg.Counter("lockfree.pop_hits", func() uint64 { return h.Stats.PopHits })
	reg.Describe("lockfree.pop_hits", "Allocations served by popping a class free stack.")
	reg.Counter("lockfree.carves", func() uint64 { return h.Stats.Carves })
	reg.Describe("lockfree.carves", "Allocations served by carving a fresh block off a slab.")
	reg.Counter("lockfree.slab_refills", func() uint64 { return h.Stats.SlabRefills })
	reg.Describe("lockfree.slab_refills", "Slab refills via sbrk (the only non-constant-time event).")
	reg.Counter("lockfree.large_allocs", func() uint64 { return h.Stats.LargeAllocs })
	reg.Describe("lockfree.large_allocs", "Large (page-rounded) allocations bypassing the stacks.")
	reg.Counter("lockfree.large_frees", func() uint64 { return h.Stats.LargeFrees })
	reg.Describe("lockfree.large_frees", "Large deallocations unmapped directly.")
	reg.Counter("lockfree.cas.attempts", func() uint64 { return h.Stats.CASAttempts })
	reg.Describe("lockfree.cas.attempts", "Compare-and-swap attempts on class stack heads.")
	reg.Counter("lockfree.cas.retries", func() uint64 { return h.Stats.CASRetries })
	reg.Describe("lockfree.cas.retries", "Compare-and-swap attempts that lost a race and retried.")
	reg.Gauge("lockfree.free_blocks", func() float64 { return float64(h.FreeBlocks()) })
	reg.Describe("lockfree.free_blocks", "Blocks currently parked on class free stacks.")
	reg.Gauge("lockfree.carved_blocks", func() float64 { return float64(h.CarvedBlocks()) })
	reg.Describe("lockfree.carved_blocks", "Blocks ever carved from class slabs.")
	if h.MC != nil {
		h.MC.RegisterMetrics(reg)
	}
}
