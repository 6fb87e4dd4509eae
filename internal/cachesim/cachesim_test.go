package cachesim

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"unsafe"
)

func smallCache() *Cache {
	// 4 sets x 2 ways x 64B lines = 512B.
	return New(Config{Name: "test", SizeBytes: 512, Ways: 2, LineShift: 6, Latency: 4})
}

func TestLookupMissThenHit(t *testing.T) {
	c := smallCache()
	if c.Lookup(0x1000) {
		t.Fatal("empty cache hit")
	}
	c.Insert(0x1000)
	if !c.Lookup(0x1000) {
		t.Fatal("inserted line missed")
	}
	if !c.Lookup(0x1008) {
		t.Fatal("same line, different offset missed")
	}
	if c.Lookup(0x1040) {
		t.Fatal("adjacent line hit")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 2 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache()
	// Three lines mapping to the same set (set stride = 4 lines = 256B).
	a, b, d := uint64(0x0000), uint64(0x0100), uint64(0x0200)
	c.Insert(a)
	c.Insert(b)
	c.Lookup(a) // a is now MRU
	evicted, was := c.Insert(d)
	if !was {
		t.Fatal("full set insert did not evict")
	}
	if evicted != b>>6 {
		t.Fatalf("evicted line %#x, want %#x (LRU)", evicted, b>>6)
	}
	if !c.Contains(a) || c.Contains(b) || !c.Contains(d) {
		t.Fatal("wrong residency after eviction")
	}
}

func TestEvictLRUHalf(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 64 * 8, Ways: 8, LineShift: 6, Latency: 4} // 1 set, 8 ways
	c := New(cfg)
	for i := 0; i < 8; i++ {
		c.Insert(uint64(i) << 6)
	}
	// Touch lines 4..7 so 0..3 are the LRU half.
	for i := 4; i < 8; i++ {
		c.Lookup(uint64(i) << 6)
	}
	c.EvictLRUHalf()
	for i := 0; i < 4; i++ {
		if c.Contains(uint64(i) << 6) {
			t.Errorf("LRU line %d survived", i)
		}
	}
	for i := 4; i < 8; i++ {
		if !c.Contains(uint64(i) << 6) {
			t.Errorf("MRU line %d evicted", i)
		}
	}
	if occ := c.Occupancy(); occ != 0.5 {
		t.Errorf("occupancy = %v", occ)
	}
}

func TestFlush(t *testing.T) {
	c := smallCache()
	c.Insert(0)
	c.Insert(64)
	c.Flush()
	if c.Occupancy() != 0 {
		t.Fatal("flush left valid lines")
	}
}

func TestInsertIdempotentProperty(t *testing.T) {
	f := func(addrs []uint64) bool {
		c := New(Config{Name: "q", SizeBytes: 4096, Ways: 4, LineShift: 6, Latency: 1})
		for _, a := range addrs {
			a %= 1 << 30
			c.Insert(a)
			if !c.Contains(a) {
				return false // just-inserted line must be present
			}
			if _, evicted := c.Insert(a); evicted {
				return false // reinserting a present line must not evict
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewDefaultHierarchy()
	addr := uint64(0x400000)
	// Cold: TLB walk + DRAM.
	if lat := h.Load(addr); lat != 30+200 {
		t.Fatalf("cold load latency %d, want 230", lat)
	}
	// Warm: L1 hit, TLB hit.
	if lat := h.Load(addr); lat != 4 {
		t.Fatalf("warm load latency %d, want 4", lat)
	}
	// Same page, new line: TLB hit, DRAM miss.
	if lat := h.Load(addr + 64); lat != 200 {
		t.Fatalf("same-page cold line latency %d, want 200", lat)
	}
}

func TestHierarchyL2L3Fills(t *testing.T) {
	h := NewDefaultHierarchy()
	addr := uint64(0x800000)
	h.Load(addr) // fill all levels
	// Evict from L1 only by thrashing its set: L1 32KB/8-way/64B = 64
	// sets; lines mapping to the same L1 set are 4KB apart.
	for i := 1; i <= 8; i++ {
		h.Load(addr + uint64(i)*4096)
	}
	lat := h.Load(addr)
	if lat != 12 && lat != 36 {
		t.Fatalf("expected an L2/L3 hit after L1 eviction, got %d", lat)
	}
}

func TestAntagonizeRaisesLatency(t *testing.T) {
	h := NewDefaultHierarchy()
	addr := uint64(0x10000)
	h.Load(addr)
	if lat := h.Load(addr); lat != 4 {
		t.Fatalf("warm latency %d", lat)
	}
	h.Antagonize()
	// The line was the only (hence LRU-half) occupant: must be gone from
	// L1 and L2, but still in L3.
	if lat := h.Load(addr); lat != 36 {
		t.Fatalf("post-antagonist latency %d, want 36 (L3)", lat)
	}
}

func TestInclusiveBackInvalidate(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	// Shrink L3 to 2 ways x 1 set-ish to force evictions quickly.
	cfg.L3 = Config{Name: "L3", SizeBytes: 128, Ways: 2, LineShift: 6, Latency: 36}
	h := NewHierarchy(cfg)
	a, b, c := uint64(0), uint64(64*2), uint64(64*4) // all map to L3 set 0
	h.Load(a)
	h.Load(b)
	h.Load(c) // evicts a from L3, must back-invalidate L1/L2
	if h.L1D.Contains(a) || h.L2.Contains(a) {
		t.Fatal("inclusive back-invalidation failed")
	}
}

func TestFlushAll(t *testing.T) {
	h := NewDefaultHierarchy()
	h.Load(0x123400)
	h.FlushAll()
	if lat := h.Load(0x123400); lat != 230 {
		t.Fatalf("post-flush latency %d, want 230", lat)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "odd", SizeBytes: 1000, Ways: 3, LineShift: 6, Latency: 1},
		{Name: "nonpow2", SizeBytes: 64 * 3 * 2, Ways: 2, LineShift: 6, Latency: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %s did not panic", cfg.Name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestStatsMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty miss rate")
	}
	s.Hits, s.Misses = 3, 1
	if s.MissRate() != 0.25 {
		t.Errorf("miss rate %v", s.MissRate())
	}
	if s.Accesses() != 4 {
		t.Errorf("accesses %v", s.Accesses())
	}
}

func TestWayIsEightBytes(t *testing.T) {
	if got := unsafe.Sizeof(way{}); got != 8 {
		t.Fatalf("sizeof(way) = %d, want 8", got)
	}
}

// TestTagBeyond32BitsPanics: an L1D address at 2^44 needs a 33-bit tag,
// which must panic rather than alias a lower line.
func TestTagBeyond32BitsPanics(t *testing.T) {
	c := New(DefaultHierarchyConfig().L1D)
	c.Insert(1<<44 - 64) // the last line below the bound fits
	defer func() {
		if recover() == nil {
			t.Fatal("an L1D address at 2^44 did not panic")
		}
	}()
	c.Lookup(1 << 44)
}

// TestRenumberKeepsLRUOrder wraps the clock of a one-set cache and checks
// that the LRU line is still the one evicted afterwards.
func TestRenumberKeepsLRUOrder(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 64 * 4, Ways: 4, LineShift: 6, Latency: 1})
	c.clock, c.epoch = math.MaxUint32-4, math.MaxUint32-4
	for i := uint64(0); i < 4; i++ {
		c.Insert(i << 6)
	}
	c.Lookup(0) // wraps the clock: line 0 becomes MRU, line 1 is LRU
	if c.clock != 5 || c.epoch != 0 {
		t.Fatalf("clock %d epoch %d after the wrap, want 5 and 0", c.clock, c.epoch)
	}
	if ln, ok := c.Insert(4 << 6); !ok || ln != 1 {
		t.Fatalf("evicted line %d (%v), want the LRU line 1", ln, ok)
	}
}

// geometries are the default hierarchy's levels, the lockstep streams'
// subjects.
func geometries() []Config {
	h := DefaultHierarchyConfig()
	return []Config{h.L1D, h.L2, h.L3, h.DTLB}
}

// TestMatchesReference drives the packed Cache and the frozen 16-byte-way
// reference in lockstep over seeded random operation streams for each
// default geometry, and demands identical hits, evictions, stats and
// occupancy. The "wrap" runs start the packed cache's clock 1000 below
// MaxUint32, so stamps are renumbered mid-stream with stale and flushed
// lines present.
func TestMatchesReference(t *testing.T) {
	for _, cfg := range geometries() {
		for _, wrap := range []bool{false, true} {
			name := cfg.Name
			if wrap {
				name += "/wrap"
			}
			t.Run(name, func(t *testing.T) {
				lockstep(t, cfg, wrap, 1+uint64(len(name)))
			})
		}
	}
}

func lockstep(t *testing.T, cfg Config, wrap bool, seed uint64) {
	const steps = 20000
	c, ref := New(cfg), newRefCache(cfg)
	if wrap {
		c.clock, c.epoch = math.MaxUint32-1000, math.MaxUint32-1000
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	// Concentrate the stream on a few sets, each with a pool of 3*Ways
	// tags, so hits, evictions and invalidations of present lines are all
	// common. Tags span the full 32-bit range the packed layout allows.
	sets := []uint64{0, 1, uint64(c.sets - 1), uint64(c.sets / 2)}
	tags := make([]uint64, 3*cfg.Ways)
	for i := range tags {
		tags[i] = rng.Uint64N(1 << 32)
	}
	tags[0], tags[1] = 0, math.MaxUint32
	addr := func() uint64 {
		ln := tags[rng.IntN(len(tags))]<<c.setBits | sets[rng.IntN(len(sets))]
		return ln<<cfg.LineShift | rng.Uint64N(1<<cfg.LineShift)
	}
	for step := 0; step < steps; step++ {
		switch r := rng.IntN(1000); {
		case r < 400:
			a := addr()
			if got, want := c.Lookup(a), ref.Lookup(a); got != want {
				t.Fatalf("step %d: Lookup(%#x) = %v, reference %v", step, a, got, want)
			}
		case r < 800:
			a := addr()
			ln, ok := c.Insert(a)
			wantLn, wantOK := ref.Insert(a)
			if ok != wantOK || (ok && ln != wantLn) {
				t.Fatalf("step %d: Insert(%#x) = %#x,%v, reference %#x,%v", step, a, ln, ok, wantLn, wantOK)
			}
		case r < 880:
			ln := addr() >> cfg.LineShift
			c.InvalidateLine(ln)
			ref.InvalidateLine(ln)
		case r < 990:
			a := addr()
			if got, want := c.Contains(a), ref.Contains(a); got != want {
				t.Fatalf("step %d: Contains(%#x) = %v, reference %v", step, a, got, want)
			}
		case r < 995:
			c.EvictLRUHalf()
			ref.EvictLRUHalf()
		default:
			c.Flush()
			ref.Flush()
		}
		if c.Stats != ref.Stats {
			t.Fatalf("step %d: stats %+v, reference %+v", step, c.Stats, ref.Stats)
		}
		if step%500 == 0 || step == steps-1 {
			if got, want := c.Occupancy(), ref.Occupancy(); got != want {
				t.Fatalf("step %d: occupancy %v, reference %v", step, got, want)
			}
		}
	}
	if wrap && c.clock >= math.MaxUint32-1000 {
		t.Fatalf("clock %d never wrapped", c.clock)
	}
}
