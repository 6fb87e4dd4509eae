package core

import (
	"testing"
	"testing/quick"

	"mallacc/internal/stats"
)

func TestSzLookupLearnsRanges(t *testing.T) {
	m := New(Config{Entries: 4, IndexMode: true})
	if _, _, _, ok := m.SzLookup(10); ok {
		t.Fatal("cold cache hit")
	}
	m.SzUpdate(10, 12, 96, 7)
	if _, cls, sz, ok := m.SzLookup(10); !ok || cls != 7 || sz != 96 {
		t.Fatalf("lookup after update: cls=%d sz=%d ok=%v", cls, sz, ok)
	}
	// Widen the range: same class, lower and higher keys.
	m.SzUpdate(8, 8, 96, 7)
	m.SzUpdate(12, 12, 96, 7)
	for key := uint64(8); key <= 12; key++ {
		if _, _, _, ok := m.SzLookup(key); !ok {
			t.Fatalf("key %d not covered after widening", key)
		}
	}
	if _, _, _, ok := m.SzLookup(13); ok {
		t.Fatal("key outside range hit")
	}
	// A single entry per class.
	used := 0
	for _, e := range m.entries {
		if e.Valid {
			used++
		}
	}
	if used != 1 {
		t.Fatalf("%d entries used for one class", used)
	}
}

func TestLRUEvictionOnFullCache(t *testing.T) {
	m := New(Config{Entries: 2})
	m.SzUpdate(1, 1, 16, 1)
	m.SzUpdate(2, 2, 32, 2)
	m.SzLookup(1) // touch class 1
	m.SzUpdate(3, 3, 48, 3)
	if _, _, _, ok := m.SzLookup(1); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, _, _, ok := m.SzLookup(2); ok {
		t.Fatal("LRU entry survived")
	}
	if m.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d", m.Stats.Evictions)
	}
}

func TestHdPopSemantics(t *testing.T) {
	m := New(Config{Entries: 4})
	m.SzUpdate(5, 5, 48, 3)
	// Absent list copies: miss.
	if _, _, _, ok := m.HdPop(3); ok {
		t.Fatal("pop hit with empty copies")
	}
	// Only Head present: miss AND both invalidated (Fig. 11).
	m.NxtPrefetch(3, 0x100, 0) // installs Head=0x100, Next=0
	if _, _, _, ok := m.HdPop(3); ok {
		t.Fatal("pop hit with only Head")
	}
	if e := m.entries[m.findByClass(3)]; e.Head != 0 || e.Next != 0 {
		t.Fatalf("miss did not invalidate: %+v", e)
	}
	// Both present: hit promotes Next.
	m.HdPush(3, 0x200)
	m.HdPush(3, 0x300) // Head=0x300 Next=0x200
	entry, head, next, ok := m.HdPop(3)
	if !ok || head != 0x300 || next != 0x200 {
		t.Fatalf("pop: entry=%d head=%#x next=%#x ok=%v", entry, head, next, ok)
	}
	e := m.entries[entry]
	if e.Head != 0x200 || e.Next != 0 {
		t.Fatalf("post-pop state: %+v", e)
	}
	// Unknown class: miss with entry -1.
	if entry, _, _, ok := m.HdPop(9); ok || entry != -1 {
		t.Fatal("pop on unknown class")
	}
}

func TestHdPushShifts(t *testing.T) {
	m := New(Config{Entries: 4})
	m.SzUpdate(2, 2, 32, 2)
	m.HdPush(2, 0xa0)
	m.HdPush(2, 0xb0)
	e := m.entries[m.findByClass(2)]
	if e.Head != 0xb0 || e.Next != 0xa0 {
		t.Fatalf("push state: %+v", e)
	}
	// Push to unknown class is a no-op.
	if m.HdPush(9, 0xc0) != -1 {
		t.Fatal("push allocated an entry")
	}
}

func TestNxtPrefetchStateMachine(t *testing.T) {
	m := New(Config{Entries: 4})
	m.SzUpdate(4, 4, 64, 4)
	// Empty Head: install the full (addr, value) pair — the
	// restore-after-miss path.
	m.NxtPrefetch(4, 0x500, 0x600)
	e := m.entries[m.findByClass(4)]
	if e.Head != 0x500 || e.Next != 0x600 {
		t.Fatalf("restore install: %+v", e)
	}
	// Head present, Next empty, matching address: fill Next.
	m.HdPop(4) // Head=0x600, Next=0
	m.NxtPrefetch(4, 0x600, 0x700)
	e = m.entries[m.findByClass(4)]
	if e.Next != 0x700 {
		t.Fatalf("next fill: %+v", e)
	}
	// Mismatched address must not corrupt the pair.
	m.HdPop(4) // Head=0x700, Next=0
	m.NxtPrefetch(4, 0xbad, 0xbad2)
	e = m.entries[m.findByClass(4)]
	if e.Next != 0 || e.Head != 0x700 {
		t.Fatalf("mismatched prefetch corrupted: %+v", e)
	}
	// NULL operand is dropped.
	if m.NxtPrefetch(4, 0, 0x1) != -1 {
		t.Fatal("NULL prefetch not dropped")
	}
}

func TestFlushAndInvalidate(t *testing.T) {
	m := New(Config{Entries: 4})
	m.SzUpdate(1, 1, 16, 1)
	m.HdPush(1, 0x10)
	m.InvalidateClass(1)
	e := m.entries[m.findByClass(1)]
	if e.Head != 0 || e.Next != 0 {
		t.Fatal("InvalidateClass left copies")
	}
	if !e.Valid {
		t.Fatal("InvalidateClass dropped the size-class mapping")
	}
	m.Flush()
	for _, e := range m.entries {
		if e.Valid {
			t.Fatal("flush left a valid entry")
		}
	}
	if m.Stats.Flushes != 1 {
		t.Fatal("flush not counted")
	}
}

func TestHitRates(t *testing.T) {
	m := New(Config{Entries: 4})
	m.SzUpdate(1, 1, 16, 1)
	m.SzLookup(1)
	m.SzLookup(99)
	if hr := m.Stats.LookupHitRate(); hr != 0.5 {
		t.Fatalf("lookup hit rate %v", hr)
	}
	var s Stats
	if s.LookupHitRate() != 0 || s.PopHitRate() != 0 {
		t.Fatal("zero-stats hit rates")
	}
}

func TestZeroEntryConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0 entries")
		}
	}()
	New(Config{Entries: 0})
}

// refCache is a trivially correct reference model: a map from class to the
// full free-list contents, from which (Head, Next) semantics are derived.
type refCache struct {
	classes map[uint8][2]uint64 // class -> {head, next}; 0 = empty
	known   map[uint8]bool
}

// TestPopPushPrefetchAgainstReference drives random op sequences through
// the malloc cache and a reference model; the cached pair must always
// match the reference exactly.
func TestPopPushPrefetchAgainstReference(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		// Large entry count so capacity effects don't enter; class set
		// small so ops collide.
		m := New(Config{Entries: 8})
		ref := refCache{classes: map[uint8][2]uint64{}, known: map[uint8]bool{}}
		nextAddr := uint64(0x1000)
		for step := 0; step < 300; step++ {
			class := uint8(1 + rng.Intn(3))
			switch rng.Intn(3) {
			case 0: // push
				if !ref.known[class] {
					// The cache only tracks learned classes.
					m.SzUpdate(uint64(class), uint64(class), uint64(class)*16, class)
					ref.known[class] = true
				}
				nextAddr += 16
				m.HdPush(class, nextAddr)
				pair := ref.classes[class]
				ref.classes[class] = [2]uint64{nextAddr, pair[0]}
			case 1: // pop
				if !ref.known[class] {
					continue
				}
				_, head, next, ok := m.HdPop(class)
				pair := ref.classes[class]
				wantOK := pair[0] != 0 && pair[1] != 0
				if ok != wantOK {
					return false
				}
				if ok {
					if head != pair[0] || next != pair[1] {
						return false
					}
					ref.classes[class] = [2]uint64{pair[1], 0}
				} else {
					ref.classes[class] = [2]uint64{}
				}
			case 2: // prefetch (restore or fill)
				if !ref.known[class] {
					continue
				}
				pair := ref.classes[class]
				addr := nextAddr + 8
				val := nextAddr + 24
				m.NxtPrefetch(class, addr, val)
				switch {
				case pair[0] != 0 && pair[1] == 0 && pair[0] == addr:
					ref.classes[class] = [2]uint64{pair[0], val}
				case pair[0] == 0:
					ref.classes[class] = [2]uint64{addr, val}
				}
			}
		}
		// Final states must agree.
		for cls, pair := range ref.classes {
			if !ref.known[cls] {
				continue
			}
			i := m.findByClass(cls)
			if i < 0 {
				return false
			}
			e := m.entries[i]
			if e.Head != pair[0] || e.Next != pair[1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFIFOReplacement(t *testing.T) {
	m := New(Config{Entries: 2, Replacement: ReplaceFIFO})
	m.SzUpdate(1, 1, 16, 1)
	m.SzUpdate(2, 2, 32, 2)
	m.SzLookup(1) // recently used, but oldest *inserted*
	m.SzUpdate(3, 3, 48, 3)
	if _, _, _, ok := m.SzLookup(1); ok {
		t.Fatal("FIFO should evict the oldest insertion regardless of use")
	}
	if _, _, _, ok := m.SzLookup(2); !ok {
		t.Fatal("FIFO evicted the newer entry")
	}
}

func TestNoNextSlotSemantics(t *testing.T) {
	m := New(Config{Entries: 4, NoNextSlot: true})
	m.SzUpdate(5, 5, 48, 3)
	m.HdPush(3, 0x100)
	// Head-only hit: single element suffices.
	entry, head, next, ok := m.HdPop(3)
	if !ok || head != 0x100 || next != 0 {
		t.Fatalf("head-only pop: %d %#x %#x %v", entry, head, next, ok)
	}
	// Consumed: next pop misses.
	if _, _, _, ok := m.HdPop(3); ok {
		t.Fatal("second pop should miss")
	}
	// Prefetch refills Head with the address.
	m.NxtPrefetch(3, 0x200, 0x300)
	_, head, _, ok = m.HdPop(3)
	if !ok || head != 0x200 {
		t.Fatalf("prefetch-refilled pop: %#x %v", head, ok)
	}
}

func TestNoRestoreOnMiss(t *testing.T) {
	m := New(Config{Entries: 4, NoRestoreOnMiss: true})
	m.SzUpdate(5, 5, 48, 3)
	// Empty entry: prefetch must NOT install the pair.
	m.NxtPrefetch(3, 0x500, 0x600)
	e := m.entries[m.findByClass(3)]
	if e.Head != 0 || e.Next != 0 {
		t.Fatalf("restore-on-miss disabled but installed: %+v", e)
	}
	// The Next-fill path still works after pushes.
	m.HdPush(3, 0x700)
	m.HdPush(3, 0x800)
	m.HdPop(3) // Head=0x700, Next=0
	m.NxtPrefetch(3, 0x700, 0x900)
	e = m.entries[m.findByClass(3)]
	if e.Next != 0x900 {
		t.Fatalf("next-fill broken: %+v", e)
	}
}

func TestPrefetchValueGenericForm(t *testing.T) {
	m := New(Config{Entries: 4})
	m.SzUpdate(5, 5, 48, 3)
	// No entry head: no install (generic form never restores).
	if m.PrefetchValue(3, 0xaa) < 0 {
		t.Fatal("entry exists, should return its index")
	}
	if e := m.entries[m.findByClass(3)]; e.Head != 0 || e.Next != 0 {
		t.Fatalf("generic prefetch installed into empty entry: %+v", e)
	}
	// Head present, Next empty: fill regardless of address relationships.
	m.HdPush(3, 0x10)
	m.HdPush(3, 0x20)
	m.HdPop(3) // Head=0x10, Next=0
	m.PrefetchValue(3, 0x30)
	if e := m.entries[m.findByClass(3)]; e.Next != 0x30 {
		t.Fatalf("generic fill failed: %+v", e)
	}
	// Unknown class / zero value: no-ops.
	if m.PrefetchValue(9, 1) != -1 || m.PrefetchValue(3, 0) != -1 {
		t.Fatal("generic prefetch edge cases")
	}
}

func TestFindClass(t *testing.T) {
	m := New(Config{Entries: 4})
	if m.FindClass(7) != -1 {
		t.Fatal("empty cache found a class")
	}
	i := m.SzUpdate(10, 12, 96, 7)
	if m.FindClass(7) != i {
		t.Fatal("FindClass disagrees with SzUpdate")
	}
}
