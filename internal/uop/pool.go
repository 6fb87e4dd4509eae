package uop

import "sync"

// Micro-op slab pooling. An Emitter's backing array grows whenever a call
// emits more ops than any call before it (span carving, cache flush loops,
// lock convoys), and every simulation run builds fresh heaps — and with
// them fresh emitters. Without pooling each run re-grows its emitters from
// 128 ops, allocating and abandoning a slab per growth step. The pool below
// hands a finished run's slabs, at whatever capacity they grew to, to the
// next run's emitters; traces hold no pointers, so recycled slabs need no
// zeroing (every op is overwritten before it is read).

var slabPool sync.Pool

// getSlab returns a zero-length micro-op slab with capacity at least n.
func getSlab(n int) []UOp {
	if s, ok := slabPool.Get().(*[]UOp); ok && cap(*s) >= n {
		return (*s)[:0]
	}
	return make([]UOp, 0, n)
}

// putSlab returns a slab of any capacity to the pool.
func putSlab(s []UOp) {
	if cap(s) == 0 {
		return
	}
	slabPool.Put(&s)
}
