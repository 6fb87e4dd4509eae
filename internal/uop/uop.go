// Package uop defines the micro-operation trace format that connects the
// functional allocator model to the cycle-level CPU timing model.
//
// The reproduced TCMalloc executes every allocator operation twice over, in
// one pass: it performs the operation functionally against the simulated
// address space, and simultaneously emits the micro-ops an x86 core would
// execute for it — loads and stores with their simulated addresses, ALU
// ops, branches with stable site IDs for the branch predictor, and the five
// Mallacc instructions. Register dataflow is captured as explicit
// dependency edges between micro-ops, so the out-of-order model sees the
// same dependence graph the paper's Figure 7 analyzes (e.g. the dependent
// load-load-store chain of a free-list pop).
//
// Every micro-op carries a Step tag identifying which fast-path component
// it belongs to (size-class computation, sampling, free-list push/pop, ...).
// The paper's limit study "simply ignores" those instructions in timing
// simulation; the CPU model reproduces that by treating drop-tagged ops as
// zero-latency.
package uop

// Kind enumerates micro-op types. Latencies and port bindings are assigned
// by the CPU model.
type Kind uint8

const (
	// ALU is a simple integer operation (add, shift, compare): 1 cycle.
	ALU Kind = iota
	// Load reads 8 bytes from the simulated address space through the
	// cache hierarchy.
	Load
	// Store writes 8 bytes; it completes without waiting for the memory
	// system (senior store queue semantics).
	Store
	// Branch is a conditional branch resolved at execute; mispredictions
	// redirect fetch.
	Branch
	// McSzLookup is Mallacc's size-class lookup (paper Fig. 9): requested
	// size in, (size class, allocation size) out, ZF set on hit.
	McSzLookup
	// McSzUpdate inserts or widens a size-class mapping after a software
	// fallback (paper Fig. 9).
	McSzUpdate
	// McHdPop pops the cached free-list head for a size class (Fig. 11).
	McHdPop
	// McHdPush pushes a freed pointer as the new cached head (Fig. 11).
	McHdPush
	// McNxtPrefetch asynchronously refills the cached Next (or Head) slot;
	// it commits like a store but blocks its malloc-cache entry until the
	// data returns from the cache hierarchy (Fig. 11, Sec. 4.1).
	McNxtPrefetch
	// Nop occupies no resources; used as a dependence join point.
	Nop

	numKinds
)

var kindNames = [numKinds]string{
	"alu", "load", "store", "branch",
	"mcszlookup", "mcszupdate", "mchdpop", "mchdpush", "mcnxtprefetch", "nop",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// IsMallacc reports whether the op is one of the five accelerator
// instructions.
func (k Kind) IsMallacc() bool {
	return k >= McSzLookup && k <= McNxtPrefetch
}

// IsMemory reports whether the op accesses the cache hierarchy.
func (k Kind) IsMemory() bool {
	return k == Load || k == Store || k == McNxtPrefetch
}

// Step tags a micro-op with the fast-path component it implements
// (Sec. 3.3 of the paper). The limit study and the Figure 4 ablations
// remove steps from timing by tag.
type Step uint8

const (
	// StepOther covers addressing calculations, metadata updates and
	// everything the paper chooses not to accelerate.
	StepOther Step = iota
	// StepSizeClass is the size-class computation (Fig. 5).
	StepSizeClass
	// StepSampling is the sampling counter check.
	StepSampling
	// StepPushPop is the free-list head push/pop chain (Fig. 7).
	StepPushPop
	// StepCallOverhead is function prologue/epilogue work.
	StepCallOverhead

	NumSteps
)

var stepNames = [NumSteps]string{"other", "sizeclass", "sampling", "pushpop", "callovh"}

func (s Step) String() string {
	if int(s) < len(stepNames) {
		return stepNames[s]
	}
	return "unknown"
}

// Val identifies the micro-op whose result a later op consumes. NoDep means
// the operand is immediately available (immediate or long-ago register).
type Val int32

// NoDep marks an absent dependency.
const NoDep Val = -1

// UOp is one micro-operation of a call trace. Fields are ordered widest
// first so the struct packs into 32 bytes instead of the 40 a declaration-
// order layout costs: every op is written into the emitter's slab and
// re-read by the timing model's scheduling loop, so op size is directly
// hot-path memory traffic.
type UOp struct {
	// Addr is the simulated byte address for memory ops.
	Addr uint64
	// Dep1, Dep2 are register-dataflow dependencies (indices into the
	// trace), or NoDep.
	Dep1, Dep2 Val
	// Site is a stable branch-site identifier; the branch predictor is
	// indexed by it (a stand-in for the static PC).
	Site uint32
	// MCEntry is the malloc-cache entry this Mallacc op touched, or -1.
	// Entry blocking on outstanding prefetch is enforced per entry.
	MCEntry int16
	Kind    Kind
	Step    Step
	// Taken is the actual branch outcome.
	Taken bool
	// MCHit records whether a Mallacc lookup/pop hit (determined
	// functionally); a miss clears ZF and software falls back.
	MCHit bool
	// LatOverride, if nonzero, replaces the kind's default execution
	// latency (e.g. +1 cycle for the index-computation mode of
	// mcszlookup).
	LatOverride uint8
}

// Trace is the micro-op sequence of a single allocator call, in program
// order.
type Trace struct {
	Ops []UOp
}

// Emitter builds call traces. The allocator holds one Emitter and resets it
// at the start of every malloc/free; helper methods return the Val of the
// op they append so callers can wire dataflow.
type Emitter struct {
	ops []UOp
	// lastMC implements the architectural ordering of the three linked-
	// list instructions ("implicit read-write register dependency through
	// an architecturally-invisible register", Sec. 4.1): each Mallacc list
	// op depends on the previous one.
	lastMC Val
	// step is the currently active tag.
	step Step
}

// NewEmitter returns an Emitter with capacity for typical fast-path
// traces. The backing slab comes from a shared pool; call Recycle when
// the emitter is permanently done to return it.
func NewEmitter() *Emitter {
	return &Emitter{ops: getSlab(128), lastMC: NoDep}
}

// Reset discards the current trace and starts a new call.
func (e *Emitter) Reset() {
	e.ops = e.ops[:0]
	e.lastMC = NoDep
	e.step = StepOther
}

// Step sets the active tag for subsequently emitted ops and returns the
// previous tag so callers can restore it.
func (e *Emitter) Step(s Step) Step {
	prev := e.step
	e.step = s
	return prev
}

// Len returns the number of ops emitted for the current call.
func (e *Emitter) Len() int { return len(e.ops) }

// Trace returns the current call's trace. The backing slice is reused after
// Reset; callers must consume it before the next call.
func (e *Emitter) Trace() Trace { return Trace{Ops: e.ops} }

// Recycle returns the emitter's slab to the shared pool. The emitter (and
// any Trace it handed out) must not be used afterwards; it is meant for
// the end of a simulation run, when the owning heap is discarded.
func (e *Emitter) Recycle() {
	putSlab(e.ops)
	e.ops = nil
}

// emit appends one op and writes its fields straight into the new slab
// slot. Every emitted micro-op funnels through here, and the allocator fast
// path emits tens of ops per call. Building a UOp literal on the stack and
// appending it writes each op twice: narrow stores into the literal, then
// wide loads that stall on forwarding from those stores and the copy into
// the slab (BenchmarkEmitFastPath times this against a frozen twin that
// still does it). emit and the wrappers that call it must also stay within
// the compiler's inlining budget: an out-of-line call costs a frame and an
// argument copy per op. That is why growth appends a zero op rather than
// taking an explicit len == cap branch through the pool, which costs the
// inliner more than the budget allows. Growth is a rare event (it only
// fires when a call emits more ops than any call before it), so letting
// the outgrown slab go to the garbage collector forfeits almost nothing —
// the pool's win is recycling slabs across runs and emitters via
// NewEmitter/Recycle. append's doubling keeps power-of-two capacities, so
// grown slabs still land back in a pool class on Recycle.
func (e *Emitter) emit(kind Kind, addr uint64, dep1, dep2 Val, site uint32, entry int16, taken, hit bool, lat uint8) Val {
	n := len(e.ops)
	e.ops = append(e.ops, UOp{})
	op := &e.ops[n]
	op.Addr = addr
	op.Dep1 = dep1
	op.Dep2 = dep2
	op.Site = site
	op.MCEntry = entry
	op.Kind = kind
	op.Step = e.step
	op.Taken = taken
	op.MCHit = hit
	op.LatOverride = lat
	return Val(n)
}

// ALU emits a 1-cycle integer op depending on up to two producers.
func (e *Emitter) ALU(dep1, dep2 Val) Val {
	return e.emit(ALU, 0, dep1, dep2, 0, -1, false, false, 0)
}

// ALUWithLat emits an integer op with an explicit latency; used to model
// serializing operations with known costs (atomic RMWs for locks, the
// syscall entry/exit of an OS memory request) without inventing new kinds.
func (e *Emitter) ALUWithLat(lat uint8, dep1, dep2 Val) Val {
	return e.emit(ALU, 0, dep1, dep2, 0, -1, false, false, lat)
}

// ALUChain emits n serially dependent ALU ops seeded by dep and returns the
// last one; it models short address or flag computations.
func (e *Emitter) ALUChain(n int, dep Val) Val {
	v := dep
	for i := 0; i < n; i++ {
		v = e.ALU(v, NoDep)
	}
	return v
}

// Stall emits a serially dependent chain of fixed-latency ALU ops totalling
// cycles, seeded by dep, and returns the last op. LatOverride is a uint8, so
// long waits — a contended lock spinning until the holder releases it — are
// modeled as a chain of maximal-latency ops plus a remainder.
func (e *Emitter) Stall(cycles uint64, dep Val) Val {
	if cycles == 0 {
		return dep
	}
	v := dep
	for cycles > 0 {
		lat := uint64(255)
		if cycles < lat {
			lat = cycles
		}
		v = e.ALUWithLat(uint8(lat), v, NoDep)
		cycles -= lat
	}
	return v
}

// Load emits a load of the word at addr whose address depends on addrDep.
func (e *Emitter) Load(addr uint64, addrDep Val) Val {
	return e.emit(Load, addr, addrDep, NoDep, 0, -1, false, false, 0)
}

// Store emits a store to addr with the given address and data dependencies.
func (e *Emitter) Store(addr uint64, addrDep, dataDep Val) Val {
	return e.emit(Store, addr, addrDep, dataDep, 0, -1, false, false, 0)
}

// Branch emits a conditional branch at the given site with the actual
// outcome taken, conditioned on dep (typically a compare or a Mallacc op
// that sets ZF).
func (e *Emitter) Branch(site uint32, taken bool, dep Val) Val {
	return e.emit(Branch, 0, dep, NoDep, site, -1, taken, false, 0)
}

// Mallacc emits one of the five accelerator instructions. entry is the
// malloc-cache entry touched (-1 if none, e.g. a missing lookup), hit is
// the functional outcome, addr is the prefetch target for McNxtPrefetch,
// and latOverride optionally replaces the default latency.
func (e *Emitter) Mallacc(kind Kind, entry int, hit bool, addr uint64, dep Val, latOverride uint8) Val {
	if !kind.IsMallacc() {
		panic("uop: Mallacc called with non-accelerator kind " + kind.String())
	}
	// Order the linked-list instructions among themselves.
	list := kind == McHdPop || kind == McHdPush || kind == McNxtPrefetch
	dep2 := NoDep
	if list {
		dep2 = e.lastMC
	}
	v := e.emit(kind, addr, dep, dep2, 0, int16(entry), false, hit, latOverride)
	if list {
		e.lastMC = v
	}
	return v
}
