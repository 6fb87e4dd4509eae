package uop

import (
	"math/rand"
	"testing"
)

// refEmitter is a frozen copy of the emitter as it stood before micro-ops
// were written in place: every method builds a UOp literal, push patches
// Step and the MCEntry default into it, and append copies it into the
// slab. TestEmitterMatchesReference holds the current Emitter to it op for
// op, and BenchmarkEmitFastPathReference times it as the same-run "before"
// figure of BenchmarkEmitFastPath. Do not optimize it.
type refEmitter struct {
	ops    []UOp
	lastMC Val
	step   Step
}

func newRefEmitter() *refEmitter {
	return &refEmitter{ops: make([]UOp, 0, 128), lastMC: NoDep}
}

func (e *refEmitter) Reset() {
	e.ops = e.ops[:0]
	e.lastMC = NoDep
	e.step = StepOther
}

func (e *refEmitter) Step(s Step) Step {
	prev := e.step
	e.step = s
	return prev
}

func (e *refEmitter) push(op UOp) Val {
	op.Step = e.step
	if op.MCEntry == 0 && !op.Kind.IsMallacc() {
		op.MCEntry = -1
	}
	e.ops = append(e.ops, op)
	return Val(len(e.ops) - 1)
}

func (e *refEmitter) ALU(dep1, dep2 Val) Val {
	return e.push(UOp{Kind: ALU, Dep1: dep1, Dep2: dep2, MCEntry: -1})
}

func (e *refEmitter) ALUWithLat(lat uint8, dep1, dep2 Val) Val {
	return e.push(UOp{Kind: ALU, Dep1: dep1, Dep2: dep2, MCEntry: -1, LatOverride: lat})
}

func (e *refEmitter) Load(addr uint64, addrDep Val) Val {
	return e.push(UOp{Kind: Load, Addr: addr, Dep1: addrDep, Dep2: NoDep, MCEntry: -1})
}

func (e *refEmitter) Store(addr uint64, addrDep, dataDep Val) Val {
	return e.push(UOp{Kind: Store, Addr: addr, Dep1: addrDep, Dep2: dataDep, MCEntry: -1})
}

func (e *refEmitter) Branch(site uint32, taken bool, dep Val) Val {
	return e.push(UOp{Kind: Branch, Site: site, Taken: taken, Dep1: dep, Dep2: NoDep, MCEntry: -1})
}

func (e *refEmitter) Mallacc(kind Kind, entry int, hit bool, addr uint64, dep Val, latOverride uint8) Val {
	if !kind.IsMallacc() {
		panic("uop: Mallacc called with non-accelerator kind " + kind.String())
	}
	op := UOp{Kind: kind, Addr: addr, Dep1: dep, Dep2: NoDep, MCEntry: int16(entry), MCHit: hit, LatOverride: latOverride}
	if kind == McHdPop || kind == McHdPush || kind == McNxtPrefetch {
		op.Dep2 = e.lastMC
	}
	v := e.push(op)
	if kind == McHdPop || kind == McHdPush || kind == McNxtPrefetch {
		e.lastMC = v
	}
	return v
}

// emitOp is one randomly drawn emitter call, replayable against both
// emitters.
type emitOp struct {
	method     int // 0 ALU, 1 ALUWithLat, 2 Load, 3 Store, 4 Branch, 5 Mallacc, 6 Step
	kind       Kind
	step       Step
	entry      int
	hit, taken bool
	addr       uint64
	site       uint32
	lat        uint8
	dep1, dep2 Val
}

// randomDep draws a dependency: NoDep, an earlier op, or (rarely) an
// arbitrary index, which the emitter must pass through untouched.
func randomDep(r *rand.Rand, n int) Val {
	switch x := r.Intn(8); {
	case x == 0 || n == 0:
		return NoDep
	case x == 1:
		return Val(r.Int31())
	default:
		return Val(r.Intn(n))
	}
}

func randomSequence(r *rand.Rand, n int) []emitOp {
	seq := make([]emitOp, n)
	for i := range seq {
		seq[i] = emitOp{
			method: r.Intn(7),
			kind:   McSzLookup + Kind(r.Intn(int(McNxtPrefetch-McSzLookup)+1)),
			step:   Step(r.Intn(int(NumSteps))),
			entry:  r.Intn(40) - 1,
			hit:    r.Intn(2) == 0,
			taken:  r.Intn(2) == 0,
			addr:   r.Uint64(),
			site:   r.Uint32(),
			lat:    uint8(r.Intn(256)),
			dep1:   randomDep(r, i),
			dep2:   randomDep(r, i),
		}
	}
	return seq
}

// emitter is the surface both emitters share.
type emitter interface {
	Step(Step) Step
	ALU(dep1, dep2 Val) Val
	ALUWithLat(lat uint8, dep1, dep2 Val) Val
	Load(addr uint64, addrDep Val) Val
	Store(addr uint64, addrDep, dataDep Val) Val
	Branch(site uint32, taken bool, dep Val) Val
	Mallacc(kind Kind, entry int, hit bool, addr uint64, dep Val, latOverride uint8) Val
}

// replay drives seq through e and returns the Val of every call (the
// previous tag, for a Step call).
func replay(e emitter, seq []emitOp) []Val {
	vals := make([]Val, len(seq))
	for i, o := range seq {
		switch o.method {
		case 0:
			vals[i] = e.ALU(o.dep1, o.dep2)
		case 1:
			vals[i] = e.ALUWithLat(o.lat, o.dep1, o.dep2)
		case 2:
			vals[i] = e.Load(o.addr, o.dep1)
		case 3:
			vals[i] = e.Store(o.addr, o.dep1, o.dep2)
		case 4:
			vals[i] = e.Branch(o.site, o.taken, o.dep1)
		case 5:
			vals[i] = e.Mallacc(o.kind, o.entry, o.hit, o.addr, o.dep1, o.lat)
		case 6:
			vals[i] = Val(e.Step(o.step))
		}
	}
	return vals
}

// dirtyEmitter returns an emitter whose whole slab, up to its capacity,
// holds an op with every field set, as a slab handed back by Recycle and
// reissued by NewEmitter can: the pool never zeroes slabs. A field the
// emitter leaves unwritten then reads back as garbage rather than zero.
func dirtyEmitter() *Emitter {
	junk := UOp{Addr: ^uint64(0), Dep1: 0x5a5a5a5a, Dep2: 0x5a5a5a5a, Site: ^uint32(0),
		MCEntry: 0x7777, Kind: Nop, Step: NumSteps, Taken: true, MCHit: true, LatOverride: 0xff}
	fill := func(e *Emitter) {
		s := e.ops[:cap(e.ops)]
		for i := range s {
			s[i] = junk
		}
	}
	e := NewEmitter()
	fill(e)
	e.Recycle()
	e = NewEmitter() // usually the slab just recycled
	fill(e)          // the pool may drop a slab (under -race it often does)
	return e
}

// TestEmitterMatchesReference drives random sequences of every emit method
// through the current emitter and the frozen reference and requires the
// same ops and the same returned Vals, on an emitter straight from
// NewEmitter and on one whose whole slab holds junk. Sequences run past the
// initial 128-op slab, so the growth path is covered too, and each emitter
// is reused across a Reset.
func TestEmitterMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		seq := randomSequence(r, 1+r.Intn(300))
		for _, dirty := range []bool{false, true} {
			e := NewEmitter()
			if dirty {
				e = dirtyEmitter()
			}
			ref := newRefEmitter()
			for pass := 0; pass < 2; pass++ {
				e.Reset()
				ref.Reset()
				got, want := replay(e, seq), replay(ref, seq)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("iter %d dirty=%v pass %d: call %d (method %d) returned %d, reference %d",
							iter, dirty, pass, i, seq[i].method, got[i], want[i])
					}
				}
				ops := e.Trace().Ops
				if len(ops) != len(ref.ops) {
					t.Fatalf("iter %d dirty=%v pass %d: %d ops, reference %d", iter, dirty, pass, len(ops), len(ref.ops))
				}
				for i := range ref.ops {
					if ops[i] != ref.ops[i] {
						t.Fatalf("iter %d dirty=%v pass %d: op %d = %+v, reference %+v",
							iter, dirty, pass, i, ops[i], ref.ops[i])
					}
				}
			}
			e.Recycle()
		}
	}
}

// emitFastPath emits a fixed 33-op sequence shaped like a Mallacc-variant
// malloc fast path: call overhead, a size-class lookup with its branch,
// the sampling check, the malloc-cache pop / prefetch chain with its
// software fallback loads and stores, and the epilogue.
func emitFastPath(e *Emitter) Val {
	e.Step(StepCallOverhead)
	sp := e.ALU(NoDep, NoDep)
	e.Store(0x7fff0000, sp, NoDep)
	e.Store(0x7fff0008, sp, NoDep)
	e.Step(StepSizeClass)
	lk := e.Mallacc(McSzLookup, 3, true, 0, NoDep, 0)
	e.Branch(11, false, lk)
	cls := e.ALU(lk, NoDep)
	e.Step(StepSampling)
	ctr := e.Load(0x601000, NoDep)
	dec := e.ALU(ctr, cls)
	e.Store(0x601000, NoDep, dec)
	cmp := e.ALU(dec, NoDep)
	e.Branch(12, false, cmp)
	e.Step(StepPushPop)
	pop := e.Mallacc(McHdPop, 3, true, 0, cls, 0)
	e.Branch(13, false, pop)
	e.Mallacc(McNxtPrefetch, 3, true, 0x10a040, pop, 0)
	fl := e.ALU(cls, NoDep)
	head := e.Load(0x602000, fl)
	next := e.Load(0x10a000, head)
	e.Store(0x602000, fl, next)
	ln := e.Load(0x602008, fl)
	ln = e.ALU(ln, NoDep)
	e.Store(0x602008, fl, ln)
	e.Step(StepOther)
	st := e.ALUWithLat(3, head, NoDep)
	e.Load(0x603000, st)
	e.ALU(st, NoDep)
	e.Store(0x603008, st, head)
	e.Branch(14, true, st)
	e.Step(StepCallOverhead)
	e.Load(0x7fff0000, sp)
	e.Load(0x7fff0008, sp)
	r := e.ALU(sp, NoDep)
	e.Branch(15, true, r)
	e.ALU(r, NoDep)
	e.ALU(head, NoDep)
	return e.ALU(NoDep, NoDep)
}

// emitFastPathRef is emitFastPath against the frozen emitter, op for op.
// It is a copy rather than a shared function over the emitter interface
// because a call through an interface is never inlined, and the inlining
// of the emit methods is what the benchmark pair measures.
func emitFastPathRef(e *refEmitter) Val {
	e.Step(StepCallOverhead)
	sp := e.ALU(NoDep, NoDep)
	e.Store(0x7fff0000, sp, NoDep)
	e.Store(0x7fff0008, sp, NoDep)
	e.Step(StepSizeClass)
	lk := e.Mallacc(McSzLookup, 3, true, 0, NoDep, 0)
	e.Branch(11, false, lk)
	cls := e.ALU(lk, NoDep)
	e.Step(StepSampling)
	ctr := e.Load(0x601000, NoDep)
	dec := e.ALU(ctr, cls)
	e.Store(0x601000, NoDep, dec)
	cmp := e.ALU(dec, NoDep)
	e.Branch(12, false, cmp)
	e.Step(StepPushPop)
	pop := e.Mallacc(McHdPop, 3, true, 0, cls, 0)
	e.Branch(13, false, pop)
	e.Mallacc(McNxtPrefetch, 3, true, 0x10a040, pop, 0)
	fl := e.ALU(cls, NoDep)
	head := e.Load(0x602000, fl)
	next := e.Load(0x10a000, head)
	e.Store(0x602000, fl, next)
	ln := e.Load(0x602008, fl)
	ln = e.ALU(ln, NoDep)
	e.Store(0x602008, fl, ln)
	e.Step(StepOther)
	st := e.ALUWithLat(3, head, NoDep)
	e.Load(0x603000, st)
	e.ALU(st, NoDep)
	e.Store(0x603008, st, head)
	e.Branch(14, true, st)
	e.Step(StepCallOverhead)
	e.Load(0x7fff0000, sp)
	e.Load(0x7fff0008, sp)
	r := e.ALU(sp, NoDep)
	e.Branch(15, true, r)
	e.ALU(r, NoDep)
	e.ALU(head, NoDep)
	return e.ALU(NoDep, NoDep)
}

// TestEmitFastPathTwins pins the benchmark pair to one 33-op trace, so the
// two time the same work.
func TestEmitFastPathTwins(t *testing.T) {
	e := NewEmitter()
	defer e.Recycle()
	ref := newRefEmitter()
	if v, rv := emitFastPath(e), emitFastPathRef(ref); v != 32 || rv != v {
		t.Fatalf("last op %d, reference %d, want 32", v, rv)
	}
	ops := e.Trace().Ops
	if len(ops) != 33 || len(ref.ops) != 33 {
		t.Fatalf("emitted %d ops, reference %d, want 33", len(ops), len(ref.ops))
	}
	for i := range ops {
		if ops[i] != ref.ops[i] {
			t.Fatalf("op %d = %+v, reference %+v", i, ops[i], ref.ops[i])
		}
	}
}

var sinkVal Val

// BenchmarkEmitFastPath times one fast-path-shaped 33-op trace through the
// current emitter; BenchmarkEmitFastPathReference is its frozen twin.
func BenchmarkEmitFastPath(b *testing.B) {
	e := NewEmitter()
	defer e.Recycle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		sinkVal = emitFastPath(e)
	}
}

func BenchmarkEmitFastPathReference(b *testing.B) {
	e := newRefEmitter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		sinkVal = emitFastPathRef(e)
	}
}
