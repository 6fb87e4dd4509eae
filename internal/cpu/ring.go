package cpu

// resTable is the zero-allocation replacement for the cycle-keyed
// reservation maps (map[uint64]int) the scheduler used for fetch and
// per-port bandwidth accounting. It is one call-relative table per core:
// slot i holds cycle start+i of the current call, with one reservation
// count per port class. portNone is never reserved as a port, so its
// count holds the call's fetch slots.
//
// Window invariant: every reservation of one call lies at or after start,
// the call's first cycle, so indexing by cycle-start needs no wrap-around
// and a short call touches only the first few slots, which stay hot in
// the host's cache from call to call.
//
// Slots are validated lazily by generation instead of being cleared
// between calls: the core bumps its generation at every RunTrace, and a
// slot whose generation differs is stale and is zeroed on first touch —
// exactly the semantics of clearing the old maps, without the per-call
// O(window) clear. Generation 0 is never live, so slots added by growth
// (zero-valued) read as stale.
//
// Generation wrap: a slot carries no cycle number that could tell a
// recurring generation's stale counts from live ones — slot i means
// "offset i of whichever call wrote it". So when the uint32 generation
// wraps to 0, the core clears the whole table and restarts at generation
// 1; without that a slot last written 2^32 calls earlier would be read as
// live.
//
// If a call outlives the window (a long lock spin or a deep miss chain),
// the table doubles by a plain copy: slot offsets are call-relative, so
// every live slot keeps its index.
//
// A slot is 12 bytes (a generation and six 8-bit counts), so a probe
// touches one cache line for all classes; New rejects widths and port
// counts above 255.
type resSlot struct {
	gen uint32
	cnt [numPortClasses]uint8
}

type resTable struct {
	s []resSlot
}

// resInitWindow is the starting window. Fast-path calls span tens to a
// few hundred cycles; slow-path calls with lock spins or span carving can
// exceed it, triggering growth that then persists for the core's lifetime.
const resInitWindow = 1024

func newResTable() resTable {
	return resTable{s: make([]resSlot, resInitWindow)}
}

// grow doubles the window until offset i fits.
func (r *resTable) grow(i uint64) {
	n := uint64(len(r.s))
	for i >= n {
		n *= 2
	}
	ns := make([]resSlot, n)
	copy(ns, r.s)
	r.s = ns
}

// bwTracker tracks bandwidth for an in-order resource whose request
// cycles never decrease within a call (fetch behind fetchC[i-1], commit
// behind lastCommit). Under monotone wants the first-fit scan degenerates
// to exactly three cases — same cycle with room, same cycle full, later
// cycle — so a (cycle, count) scalar pair replaces the table: every cycle
// before the current one is frozen and can never be probed again, and
// every cycle after it has no reservations yet. The zero value is an
// empty tracker; one lives on the stack per RunTrace call.
type bwTracker struct {
	cyc uint64
	cnt int
}

// reserve returns the first cycle >= want with a free slot (limit
// reservations per cycle) and records the reservation. want must be
// monotone non-decreasing across calls; equivalent to resTable.reserve
// under that precondition.
func (t *bwTracker) reserve(want uint64, limit int) uint64 {
	if want > t.cyc {
		t.cyc, t.cnt = want, 1
		return want
	}
	// want == t.cyc (monotonicity rules out want < t.cyc).
	if t.cnt < limit {
		t.cnt++
		return t.cyc
	}
	t.cyc, t.cnt = t.cyc+1, 1
	return t.cyc
}

// reserve finds the first cycle >= want with a free slot of class p
// (limit reservations per cycle) and records the reservation there — the
// table equivalent of the old map walk. want must not precede start. The
// slot that ends the scan is the slot the reservation lands in, so the
// write is fused into the terminating probe.
func (r *resTable) reserve(p portClass, want uint64, limit uint8, g uint32, start uint64) uint64 {
	i := want - start
	for {
		if i >= uint64(len(r.s)) {
			r.grow(i)
		}
		s := &r.s[i]
		if s.gen != g {
			s.gen = g
			s.cnt = [numPortClasses]uint8{}
			s.cnt[p] = 1
			return start + i
		}
		if s.cnt[p] < limit {
			s.cnt[p]++
			return start + i
		}
		i++
	}
}
