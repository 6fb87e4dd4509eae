package multicore

import "math/bits"

// maxCASRetries caps the modeled retry count of one compare-and-swap loop:
// unlike a spinlock, a failed CAS means some OTHER core made progress, so
// the loop is lock-free and bounded by the number of competitors, not by a
// hold time.
const maxCASRetries = 4

// casState tracks which cores touched one size class's stack head during
// the current and previous scheduler epochs — the same epoch-mask waiter
// estimation the spinlock table uses, reinterpreted: each competitor seen
// in the window is one likely lost CAS race.
type casState struct {
	epoch             uint64
	curMask, prevMask uint64
}

// casTable implements lockfree.Contention over the engine's logical
// clocks. All calls come from the relay's token holder, so the table needs
// no synchronization and stays deterministic.
type casTable struct {
	eng     *Engine
	classes map[uint8]*casState
}

func newCASTable(eng *Engine) *casTable {
	return &casTable{eng: eng, classes: map[uint8]*casState{}}
}

// Retries estimates how many CAS attempts on class's stack head fail
// before one succeeds: the number of other cores that hit the same class
// in the current or previous epoch, capped at maxCASRetries.
func (t *casTable) Retries(class uint8) int {
	cs := t.eng.active
	st := t.classes[class]
	if st == nil {
		st = &casState{}
		t.classes[class] = st
	}
	if e := t.eng.epoch; e > st.epoch {
		if e == st.epoch+1 {
			st.prevMask = st.curMask
		} else {
			st.prevMask = 0
		}
		st.curMask = 0
		st.epoch = e
	}
	competitors := bits.OnesCount64((st.curMask | st.prevMask) &^ (1 << uint(cs.id)))
	st.curMask |= 1 << uint(cs.id)
	if competitors > maxCASRetries {
		competitors = maxCASRetries
	}
	return competitors
}
