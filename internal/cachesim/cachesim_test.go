package cachesim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
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

var cacheSink *Cache

// TestMetadataIsOneAllocation: a cache's tags and per-set counts share one
// allocation, because a multicore engine builds four caches per simulated
// core and engine_gate caps its allocations; an 8 MiB, 16-way L3 holds
// 544 KiB of metadata.
func TestMetadataIsOneAllocation(t *testing.T) {
	cfg := DefaultHierarchyConfig().L3
	if got := testing.AllocsPerRun(10, func() { cacheSink = New(cfg) }); got != 2 {
		t.Fatalf("New allocates %v times, want 2 (the Cache and its metadata)", got)
	}
	if got := 4 * (len(cacheSink.tags) + len(cacheSink.n)); got != 544<<10 {
		t.Fatalf("L3 metadata is %d bytes, want %d", got, 544<<10)
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

// geometries are the default hierarchy's levels, the lockstep streams'
// subjects.
func geometries() []Config {
	h := DefaultHierarchyConfig()
	return []Config{h.L1D, h.L2, h.L3, h.DTLB}
}

// TestMatchesReference drives the recency-ordered Cache and the frozen
// stamped reference in lockstep over seeded random operation streams for
// each default geometry, and demands identical hits, evictions, stats and
// occupancy.
func TestMatchesReference(t *testing.T) {
	for _, cfg := range geometries() {
		t.Run(cfg.Name, func(t *testing.T) {
			lockstep(t, cfg, 1+uint64(len(cfg.Name)))
		})
	}
}

func lockstep(t *testing.T, cfg Config, seed uint64) {
	const steps = 20000
	c, ref := New(cfg), newRefCache(cfg)
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	// Concentrate the stream on a few sets, each with a pool of 3*Ways
	// tags, so hits, evictions and invalidations of present lines are all
	// common. Tags span the full 32-bit range the layout allows.
	sets := []uint64{0, 1, uint64(len(c.n) - 1), uint64(len(c.n) / 2)}
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
		default:
			c.EvictLRUHalf()
			ref.EvictLRUHalf()
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
}

// TestHierarchyMatchesReference drives Hierarchy.Load and the frozen
// Lookup/Insert cascade in lockstep over seeded streams and demands
// identical latencies, per-level stats and occupancy. The stream mixes
// repeats of the previous line (the most-recent-line shortcut), hot lines,
// which sit in L1D while aging out of L3, lines that conflict with them in
// every level's set, random lines over a 16 MiB footprint (twice the L3)
// and Antagonize, so L3 victims are often still held by L1D and L2 when
// they are back-invalidated.
func TestHierarchyMatchesReference(t *testing.T) {
	steps := 400_000
	if testing.Short() {
		steps = 50_000
	}
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			hierarchyLockstep(t, NewDefaultHierarchy(), seed, steps)
		})
	}
}

// TestHierarchyResetMatchesFresh fills a hierarchy (every L3 set holds
// stale tags past the count Reset clears), resets it and runs another
// seed's stream on it against a fresh reference: no tag, recency or count
// of the first stream may leak into the second.
func TestHierarchyResetMatchesFresh(t *testing.T) {
	steps := 100_000
	if testing.Short() {
		steps = 25_000
	}
	h := NewDefaultHierarchy()
	hierarchyLockstep(t, h, 1, steps)
	h.Reset()
	for _, c := range []*Cache{h.L1D, h.L2, h.L3, h.DTLB} {
		if c.Stats != (Stats{}) {
			t.Fatalf("%s stats %+v after Reset", c.cfg.Name, c.Stats)
		}
	}
	hierarchyLockstep(t, h, 2, steps)
}

// hierarchyLockstep runs a seeded stream on h and on a fresh reference,
// which h must match from its current state.
func hierarchyLockstep(t *testing.T, h *Hierarchy, seed uint64, steps int) {
	t.Helper()
	ref := newRefHierarchy(DefaultHierarchyConfig())
	rng := rand.New(rand.NewPCG(seed, 0x41e7))
	const (
		base      = uint64(1) << 40 // where driver.Work's footprint starts
		footLines = 16 << 20 >> 6
		l3Stride  = uint64(8<<20) / 16 // one L3 way: same set at every level
	)
	hot := make([]uint64, 64)
	for i := range hot {
		hot[i] = base + rng.Uint64N(footLines)<<6
	}
	levels := func(h *Hierarchy) [4]*Cache { return [4]*Cache{h.L1D, h.L2, h.L3, h.DTLB} }
	refLevels := func(h *refHierarchy) [4]*refCache { return [4]*refCache{h.L1D, h.L2, h.L3, h.DTLB} }
	var a uint64
	for step := 0; step < steps; step++ {
		switch r := rng.IntN(1000); {
		case r < 100:
			a = a&^63 + rng.Uint64N(64) // the previous line again
		case r < 400:
			a = hot[rng.IntN(len(hot))] + rng.Uint64N(64)
		case r < 500:
			a = hot[rng.IntN(len(hot))] + (1+rng.Uint64N(24))*l3Stride
		case r < 999:
			a = base + rng.Uint64N(footLines)<<6 + rng.Uint64N(64)
		default:
			h.Antagonize()
			ref.Antagonize()
			continue
		}
		if got, want := h.Load(a), ref.Load(a); got != want {
			t.Fatalf("step %d: Load(%#x) = %d cycles, reference %d", step, a, got, want)
		}
		got, want := levels(h), refLevels(ref)
		for i := range got {
			if got[i].Stats != want[i].Stats {
				t.Fatalf("step %d: %s stats %+v, reference %+v", step, got[i].cfg.Name, got[i].Stats, want[i].Stats)
			}
			// L1D is small enough to compare on every step; a wrongly ordered
			// back-invalidation shows there first, as a set one line fuller.
			if i == 0 || step%20000 == 0 || step == steps-1 {
				if g, w := got[i].Occupancy(), want[i].Occupancy(); g != w {
					t.Fatalf("step %d: %s occupancy %v, reference %v", step, got[i].cfg.Name, g, w)
				}
			}
		}
	}
}
