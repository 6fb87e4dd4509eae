package tcmalloc

import (
	"sync"

	"mallacc/internal/mem"
	"mallacc/internal/uop"
)

// PageMap is the three-level radix tree mapping page IDs to spans, like
// TCMalloc's PageMap3 on 64-bit systems. It is what free() walks when no
// sized delete is available ("a hash lookup from the address being freed to
// the size class. This hash tends to cache poorly, especially in the TLB",
// Sec. 3.3): the walk is three dependent loads at node addresses spread
// across the metadata arena, plus a load of the span header.
const (
	pageIDBits = mem.AddressBits - mem.PageShift // 35
	rootBits   = 12
	midBits    = 11
	leafBits   = pageIDBits - rootBits - midBits // 12
	rootFanout = 1 << rootBits
	midFanout  = 1 << midBits
	leafFanout = 1 << leafBits
	midShift   = leafBits
	rootShift  = leafBits + midBits
	pageIDMask = (uint64(1) << pageIDBits) - 1
	slotBytes  = 8
)

type pmLeaf struct {
	addr  uint64
	spans [leafFanout]*Span
}

type pmMid struct {
	addr   uint64
	leaves [midFanout]*pmLeaf
}

// Radix nodes are pooled across page maps: every simulation run builds a
// heap, and with it a page map whose 32 KiB root array, 16 KiB interior
// nodes and 32 KiB leaves would otherwise be allocated afresh and abandoned
// when the run ends. Release zeroes a node as it returns it, so a pooled
// node is always empty and keeps no span of a finished run alive. Only the
// host storage is recycled: Set still places every node in the arena in
// the same order, so simulated node addresses do not depend on where the
// storage came from.
var (
	pmRootPool = sync.Pool{New: func() any { return new([rootFanout]*pmMid) }}
	pmMidPool  = sync.Pool{New: func() any { return new(pmMid) }}
	pmLeafPool = sync.Pool{New: func() any { return new(pmLeaf) }}
)

// PageMap is the radix tree plus the metadata arena its nodes are placed
// in.
type PageMap struct {
	arena    *mem.Arena
	rootAddr uint64
	root     *[rootFanout]*pmMid
	// Nodes counts interior/leaf node allocations, for tests and the
	// design-doc metadata accounting.
	Nodes int
}

// NewPageMap builds an empty radix tree with its root in the arena.
func NewPageMap(arena *mem.Arena) *PageMap {
	return &PageMap{
		arena:    arena,
		rootAddr: arena.Alloc(rootFanout*slotBytes, 64),
		root:     pmRootPool.Get().(*[rootFanout]*pmMid),
	}
}

func (pm *PageMap) indices(pageID uint64) (r, m, l uint64) {
	pageID &= pageIDMask
	return pageID >> rootShift, (pageID >> midShift) & (midFanout - 1), pageID & (leafFanout - 1)
}

// Set maps pageID to span, allocating interior nodes as needed.
func (pm *PageMap) Set(pageID uint64, s *Span) {
	r, m, l := pm.indices(pageID)
	midNode := pm.root[r]
	if midNode == nil {
		midNode = pmMidPool.Get().(*pmMid)
		midNode.addr = pm.arena.Alloc(midFanout*slotBytes, 64)
		pm.root[r] = midNode
		pm.Nodes++
	}
	leaf := midNode.leaves[m]
	if leaf == nil {
		leaf = pmLeafPool.Get().(*pmLeaf)
		leaf.addr = pm.arena.Alloc(leafFanout*slotBytes, 64)
		midNode.leaves[m] = leaf
		pm.Nodes++
	}
	leaf.spans[l] = s
}

// Release zeroes every node of the tree and returns it, root included, to
// the node pools for the next page map to take. The page map and the heap
// that owned it must not be used again.
func (pm *PageMap) Release() {
	for r, midNode := range pm.root {
		if midNode == nil {
			continue
		}
		for _, leaf := range &midNode.leaves {
			if leaf != nil {
				*leaf = pmLeaf{}
				pmLeafPool.Put(leaf)
			}
		}
		*midNode = pmMid{}
		pmMidPool.Put(midNode)
		pm.root[r] = nil
	}
	pmRootPool.Put(pm.root)
	pm.root = nil
}

// Get returns the span mapped at pageID, or nil.
func (pm *PageMap) Get(pageID uint64) *Span {
	r, m, l := pm.indices(pageID)
	midNode := pm.root[r]
	if midNode == nil {
		return nil
	}
	leaf := midNode.leaves[m]
	if leaf == nil {
		return nil
	}
	return leaf.spans[l]
}

// EmitGet performs Get while emitting the three dependent radix loads, as
// the hardware would execute them. It returns the span and the uop handle
// of the final load (whose result later ops depend on).
func (pm *PageMap) EmitGet(e *uop.Emitter, pageID uint64, addrDep uop.Val) (*Span, uop.Val) {
	r, m, l := pm.indices(pageID)
	idx := e.ALU(addrDep, uop.NoDep) // shift/mask to root index
	v1 := e.Load(pm.rootAddr+r*slotBytes, idx)
	midNode := pm.root[r]
	if midNode == nil {
		return nil, v1
	}
	v2 := e.Load(midNode.addr+m*slotBytes, v1)
	leaf := midNode.leaves[m]
	if leaf == nil {
		return nil, v2
	}
	v3 := e.Load(leaf.addr+l*slotBytes, v2)
	return leaf.spans[l], v3
}

// EmitSet performs Set while emitting one store to the leaf slot (interior
// node loads are emitted as the dependent walk).
func (pm *PageMap) EmitSet(e *uop.Emitter, pageID uint64, s *Span, addrDep uop.Val) {
	r, m, l := pm.indices(pageID)
	preNodes := pm.Nodes
	pm.Set(pageID, s)
	if pm.Nodes != preNodes {
		// Node allocation: metadata arena work, a handful of ops.
		e.ALUChain(4, addrDep)
	}
	midNode := pm.root[r]
	v1 := e.Load(pm.rootAddr+r*slotBytes, addrDep)
	v2 := e.Load(midNode.addr+m*slotBytes, v1)
	e.Store(midNode.leaves[m].addr+l*slotBytes, v2, uop.NoDep)
}
