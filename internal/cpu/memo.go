package cpu

import (
	"math/bits"

	"mallacc/internal/uop"
)

// A Memo remembers the schedules of short call traces so that a call whose
// timing input repeats an earlier call's is replayed instead of
// list-scheduled again. Nearly every fast-path call of a run repeats one:
// the same ops, the same cache latencies and branch outcomes, the same
// machine state relative to the call's start.
//
// The key is exact. RunTrace's first pass makes the call's hierarchy
// accesses and predictor updates in program order (their state never
// depends on timing) and packs, per op, everything the scheduler reads:
// kind, step, dependencies, malloc-cache entry, latency override, drop
// flag, memory latency and mispredict bit. It appends the call-relative
// ready time of the entry each pop and push reads, and, when some op
// misses L1, the call-relative end of every line-fill buffer. Times at or
// before start+1 are stored as 0: no op can issue before then, so the
// scheduler cannot tell them apart. Every schedule starts fresh at the
// current clock, so equal keys schedule identically relative to their
// starts, and a hit replays the duration, the per-step vectors and the
// line-fill and entry-ready writes shifted to the new start.
//
// A Memo is tagged with the Config and L1D latency of the core that last
// claimed it; a core with a different tag clears it before use, so no core
// is served another configuration's schedules. Cores sharing a Memo must
// run one at a time. Memory is fixed at NewMemo: the table is cleared
// when its arena or slot table fills.
type Memo struct {
	// The tag is what every stored schedule assumed. gen (never 0, the
	// value of a core that has not validated the memo) changes whenever
	// the tag does, so a core revalidates only after another core
	// retagged.
	cfg    Config
	l1Lat  uint64
	tagged bool
	gen    uint32

	// slots is an open-addressed table over arena offsets; arena holds
	// each entry as a header word, its key words and its result words.
	slots   []memoSlot
	arena   []uint64
	entries int

	Stats MemoStats
}

// MemoStats counts a memo's traffic: hits are replayed calls, misses are
// memo-eligible calls that were scheduled, resets are clears of a full
// table.
type MemoStats struct {
	Hits, Misses, Resets uint64
}

type memoSlot struct {
	hash uint32
	off  uint32 // arena offset + 1; 0 marks an empty slot
}

const (
	// memoMaxOps is the longest trace a memo serves. Nearly all repeats
	// are fast-path traces of 64 ops or fewer, and traces over 128 ops
	// never repeat, so longer traces skip the key and take the single
	// fused pass.
	memoMaxOps = 64
	// memoMaxMSHRs bounds the line-fill buffers a memo can key (the
	// replay's write mask is one word).
	memoMaxMSHRs = 64
	// memoSlots and memoArenaWords size a memo: about 0.5 MB, room for
	// a thousand or more fast-path schedules.
	memoSlots      = 4096
	memoArenaWords = 60 << 10
	// memoResultWords is the fixed part of a stored result: duration,
	// per-step cycles, packed per-step uops, line-fill write mask and the
	// count of entry-ready writes.
	memoResultWords = 1 + int(uop.NumSteps) + 3
)

// NewMemo returns an empty memo; its memory is allocated here, once.
func NewMemo() *Memo {
	return &Memo{
		gen:   1,
		slots: make([]memoSlot, memoSlots),
		arena: make([]uint64, 0, memoArenaWords),
	}
}

// clear forgets every stored schedule.
func (m *Memo) clear() {
	clear(m.slots)
	m.arena = m.arena[:0]
	m.entries = 0
}

// claim validates m for core c, retagging (and clearing) it when it holds
// another configuration's schedules.
func (m *Memo) claim(c *Core) {
	l1 := c.mem.L1D.Latency()
	if !m.tagged || m.cfg != c.cfg || m.l1Lat != l1 {
		m.clear()
		m.cfg, m.l1Lat, m.tagged = c.cfg, l1, true
		if m.gen++; m.gen == 0 {
			m.gen = 1
		}
	}
	c.memoGen = m.gen
}

// lookup returns the arena offset of the result stored under key, or -1.
func (m *Memo) lookup(key []uint64, h uint64) int {
	mask := uint64(len(m.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := m.slots[i]
		if s.off == 0 {
			return -1
		}
		if s.hash != uint32(h>>32) {
			continue
		}
		off := int(s.off - 1)
		if int(m.arena[off]&0xff) != len(key) {
			continue
		}
		stored := m.arena[off+1 : off+1+len(key)]
		if keysEqual(stored, key) {
			return off + 1 + len(key)
		}
	}
}

func keysEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// insert stores the schedule c just computed for key, which started at
// start and wrote the line-fill buffers in mshrMask, clearing the table
// first when it has no room.
func (m *Memo) insert(c *Core, ops []uop.UOp, key []uint64, h uint64, start, dur uint64, mshrMask uint64) {
	var writes int
	for i := range ops {
		if ops[i].Kind == uop.McNxtPrefetch && ops[i].MCEntry >= 0 {
			writes++
		}
	}
	need := 1 + len(key) + memoResultWords + bits.OnesCount64(mshrMask) + 2*writes
	if len(m.arena)+need > cap(m.arena) || 2*(m.entries+1) > len(m.slots) {
		m.clear()
		m.Stats.Resets++
	}
	off := len(m.arena)
	a := append(m.arena, uint64(len(key)))
	a = append(a, key...)
	a = append(a, dur)
	var uops uint64
	for s := range c.stepCyc {
		a = append(a, c.stepCyc[s])
		uops |= c.stepUops[s] << (8 * s)
	}
	a = append(a, uops, mshrMask, uint64(writes))
	for k := range c.mshr {
		if mshrMask>>k&1 != 0 {
			a = append(a, c.mshr[k]-start)
		}
	}
	for i := range ops {
		if e := ops[i].MCEntry; ops[i].Kind == uop.McNxtPrefetch && e >= 0 {
			a = append(a, uint64(e), c.entryReady[e]-start)
		}
	}
	m.arena = a
	m.entries++
	mask := uint64(len(m.slots) - 1)
	i := h & mask
	for m.slots[i].off != 0 {
		i = (i + 1) & mask
	}
	m.slots[i] = memoSlot{hash: uint32(h >> 32), off: uint32(off + 1)}
}

// replay applies the stored result at arena offset r to c as a call
// starting at start, and returns its duration.
func (m *Memo) replay(c *Core, r int, start uint64) uint64 {
	a := m.arena[r:]
	dur := a[0]
	uops := a[1+uop.NumSteps]
	for s := range c.stepCyc {
		c.stepCyc[s] = a[1+s]
		c.stepUops[s] = uops >> (8 * s) & 0xff
		c.Stats.Uops += c.stepUops[s]
	}
	mshrMask, writes := a[2+uop.NumSteps], int(a[3+uop.NumSteps])
	a = a[memoResultWords:]
	for k := range c.mshr {
		if mshrMask>>k&1 != 0 {
			c.mshr[k] = start + a[0]
			a = a[1:]
		}
	}
	for w := 0; w < writes; w++ {
		c.setEntryReady(int16(a[2*w]), start+a[2*w+1])
	}
	return dur
}
