package multicore

import (
	"math/bits"

	"mallacc/internal/tcmalloc"
)

// Spinlock cost constants. Hold time is estimated from the micro-ops
// emitted under the lock (a transfer-cache pop is ~4 uops; carving a fresh
// span is hundreds), so transfer-cache hits stay cheap while span-level
// refills get expensive under load — the shape Sec. 3.1 of the paper
// describes for TCMalloc's middle tier.
const (
	// holdCyclesPerUop converts a critical section's uop count into the
	// logical time the lock stays taken.
	holdCyclesPerUop = 2
	// handoffCycles is charged per observed waiter: the cache-line
	// ping-pong of the lock word migrating between cores.
	handoffCycles = 40
	// maxWaitCycles caps the charged spin so one pathological refill
	// cannot freeze the whole timeline.
	maxWaitCycles = 2000
)

// lockKey identifies one simulated lock instance.
type lockKey struct {
	site  tcmalloc.LockSite
	class uint8
}

// lockState is the contention record of one lock.
type lockState struct {
	// freeAt is the logical time the current holder releases the lock.
	freeAt uint64
	// epoch, curMask, prevMask track which cores touched the lock during
	// the current and previous scheduler epochs; their population count
	// is the waiter estimate.
	epoch             uint64
	curMask, prevMask uint64
	// acquiredAt is when the present holder got in (feeds freeAt at
	// release).
	acquiredAt uint64
	// holder is the core that last took the lock: reacquisition by the
	// same core never spins on its own release.
	holder int
}

// LockSiteStats aggregates one lock site's traffic.
type LockSiteStats struct {
	Acquisitions  uint64
	Contended     uint64
	WaitCycles    uint64
	HandoffCycles uint64
}

// Cycles returns all contention cycles charged at the site.
func (s LockSiteStats) Cycles() uint64 { return s.WaitCycles + s.HandoffCycles }

// lockTable implements tcmalloc.LockModel over the engine's logical clocks.
// All calls come from the relay's token holder, the one core executing at a
// time, so the table needs no synchronization of its own and stays
// deterministic.
type lockTable struct {
	eng   *Engine
	locks map[lockKey]*lockState
	stats [2]LockSiteStats // indexed by tcmalloc.LockSite
}

func newLockTable(eng *Engine) *lockTable {
	return &lockTable{eng: eng, locks: map[lockKey]*lockState{}}
}

// Acquire charges the executing core for taking the lock: the remaining
// hold time of the previous owner (capped), plus a hand-off cost per core
// observed competing for the same lock in the current or previous epoch.
func (t *lockTable) Acquire(site tcmalloc.LockSite, class uint8) uint64 {
	cs := t.eng.active
	now := cs.cpu.Cycle()
	st := t.locks[lockKey{site, class}]
	if st == nil {
		st = &lockState{}
		t.locks[lockKey{site, class}] = st
	}
	// Roll the epoch masks forward.
	if e := t.eng.epoch; e > st.epoch {
		if e == st.epoch+1 {
			st.prevMask = st.curMask
		} else {
			st.prevMask = 0
		}
		st.curMask = 0
		st.epoch = e
	}
	waiters := bits.OnesCount64((st.curMask | st.prevMask) &^ (1 << uint(cs.id)))
	st.curMask |= 1 << uint(cs.id)

	var wait uint64
	if st.freeAt > now && st.holder != cs.id {
		wait = st.freeAt - now
		if wait > maxWaitCycles {
			wait = maxWaitCycles
		}
	}
	handoff := uint64(waiters) * handoffCycles
	st.acquiredAt = now + wait + handoff
	st.holder = cs.id

	s := &t.stats[site]
	s.Acquisitions++
	if wait+handoff > 0 {
		s.Contended++
	}
	s.WaitCycles += wait
	s.HandoffCycles += handoff
	return wait + handoff
}

// Release marks the lock free once the critical section's estimated hold
// time has elapsed.
func (t *lockTable) Release(site tcmalloc.LockSite, class uint8, holdUops int) {
	st := t.locks[lockKey{site, class}]
	if st == nil || holdUops < 0 {
		return
	}
	st.freeAt = st.acquiredAt + uint64(holdUops)*holdCyclesPerUop
}
