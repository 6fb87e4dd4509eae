package workload

import "mallacc/internal/stats"

// SizeWeight is one entry of a discrete request-size distribution.
type SizeWeight struct {
	Size   uint64
	Weight float64
}

// MacroConfig parameterizes a synthetic macro workload. The eight stock
// configurations below stand in for the paper's SPEC CPU2006 subset,
// masstree and xapian runs; the parameters were chosen to reproduce the
// published behavioural signatures (see DESIGN.md):
//
//   - the size-class usage CDFs of Figure 6 (how many classes cover 90% of
//     malloc calls),
//   - the allocation/free balance (masstree performance tests never free,
//     so they continuously hit the page allocator — Sec. 3.2),
//   - the time-in-allocator fractions of Figure 18, via the application
//     work model between allocator calls,
//   - the cache pressure that turns 18-cycle fast paths into L2/L3 stalls
//     (Figure 16's 20-70 cycle region), via the application footprint.
type MacroConfig struct {
	WName string
	// Mix is the discrete size distribution of common requests.
	Mix []SizeWeight
	// TailProb draws from a uniform tail in [16, TailMax] instead of Mix,
	// giving workloads like xalancbmk their long size-class tail.
	TailProb float64
	TailMax  uint64
	// FreeProb is the chance each allocation is matched by freeing a
	// random live object; 0 with NeverFree set models the masstree
	// performance tests.
	FreeProb  float64
	NeverFree bool
	// MaxLive caps the tracked live set (oldest objects are freed beyond
	// it, in bulk, modelling phase deaths) — ignored when NeverFree.
	MaxLive int
	// Sized marks frees as sized deletes (-fsized-deallocation).
	Sized bool
	// Application model: uniform cycles of work between allocator calls,
	// touching WorkLines random lines of a FootprintBytes working set
	// (at most MaxFootprint).
	WorkCyclesMin, WorkCyclesMax uint64
	WorkLines                    int
	FootprintBytes               uint64
	// Burst behaviour: every BurstEvery allocations, allocate a batch of
	// one burst size and free it together afterwards. This drains thread
	// caches through the central lists and page heap, producing the
	// slow-path peaks of Figure 1. Successive bursts cycle through
	// BurstSizes; each burst allocates ~BurstBytes in total.
	BurstEvery int
	BurstSizes []uint64
	BurstBytes uint64
	// LargeEvery issues an occasional large (>256 KiB) request.
	LargeEvery int
	LargeSize  uint64
}

type macro struct{ cfg MacroConfig }

// NewMacro builds a workload from an explicit configuration.
func NewMacro(cfg MacroConfig) Workload { return &macro{cfg: cfg} }

func (m *macro) Name() string { return m.cfg.WName }

func (m *macro) Footprint() uint64 { return m.cfg.FootprintBytes }

func (m *macro) drawSize(rng *stats.RNG) uint64 {
	c := &m.cfg
	if c.TailProb > 0 && rng.Float64() < c.TailProb {
		return 16 + rng.Uint64n(c.TailMax-16)
	}
	total := 0.0
	for _, sw := range c.Mix {
		total += sw.Weight
	}
	x := rng.Float64() * total
	for _, sw := range c.Mix {
		x -= sw.Weight
		if x <= 0 {
			return sw.Size
		}
	}
	return c.Mix[len(c.Mix)-1].Size
}

func (m *macro) Run(app App, budget int, rng *stats.RNG) {
	c := &m.cfg
	var live liveSet
	calls := 0
	work := func() {
		span := c.WorkCyclesMax - c.WorkCyclesMin
		cyc := c.WorkCyclesMin
		if span > 0 {
			cyc += rng.Uint64n(span + 1)
		}
		app.Work(cyc, c.WorkLines)
	}
	sizedHint := func(size uint64) uint64 {
		if c.Sized {
			return size
		}
		return 0
	}
	// Warmup: populate free lists across the mix.
	for i := 0; i < 32; i++ {
		for _, sw := range c.Mix {
			live.add(app.Malloc(sw.Size), sw.Size)
		}
	}
	if !c.NeverFree {
		n := live.len() / 2
		for i := 0; i < n; i++ {
			a, s := live.removeAt(rng.Intn(live.len()))
			app.Free(a, sizedHint(s))
		}
	}

	allocs := 0
	for calls < budget {
		work()
		size := m.drawSize(rng)
		if c.LargeEvery > 0 && allocs%c.LargeEvery == c.LargeEvery-1 {
			size = c.LargeSize
		}
		a := app.Malloc(size)
		allocs++
		calls++
		if c.NeverFree {
			continue
		}
		live.add(a, size)
		if rng.Bernoulli(c.FreeProb) && live.len() > 0 {
			fa, fs := live.removeAt(rng.Intn(live.len()))
			app.Free(fa, sizedHint(fs))
			calls++
		}
		if c.MaxLive > 0 && live.len() > c.MaxLive {
			// Phase death: bulk-free the overflow.
			for live.len() > c.MaxLive/2 && calls < budget+64 {
				fa, fs := live.removeAt(rng.Intn(live.len()))
				app.Free(fa, sizedHint(fs))
				calls++
			}
		}
		if c.BurstEvery > 0 && allocs%c.BurstEvery == 0 && len(c.BurstSizes) > 0 {
			size := c.BurstSizes[(allocs/c.BurstEvery)%len(c.BurstSizes)]
			count := int(c.BurstBytes / size)
			if count < 1 {
				count = 1
			}
			var burst liveSet
			for i := 0; i < count; i++ {
				burst.add(app.Malloc(size), size)
				calls++
			}
			work()
			burst.drainAll(app, c.Sized)
			calls += count
		}
	}
}

// The eight macro workloads.

// NewPerlbench models 400.perlbench.diffmail: a handful of dominant string
// and small-structure classes, near-balanced alloc/free, and periodic
// phase bursts that reach the central lists and page allocator (the three
// peaks of Figure 1).
func NewPerlbench() Workload {
	return NewMacro(MacroConfig{
		WName: "400.perlbench",
		Mix: []SizeWeight{
			{16, 0.28}, {32, 0.26}, {64, 0.20}, {128, 0.10},
			{288, 0.08}, {512, 0.05}, {1024, 0.03},
		},
		FreeProb: 0.96, MaxLive: 20000, Sized: true,
		WorkCyclesMin: 1400, WorkCyclesMax: 2300, WorkLines: 3,
		FootprintBytes: 1 << 20,
		BurstEvery:     3000, BurstSizes: []uint64{4096, 16384, 49152}, BurstBytes: 2400 << 10,
		LargeEvery: 20000, LargeSize: 512 << 10,
	})
}

// NewTonto models 465.tonto: sparse allocation from a Fortran workload —
// few classes, long compute gaps.
func NewTonto() Workload {
	return NewMacro(MacroConfig{
		WName:    "465.tonto",
		Mix:      []SizeWeight{{64, 0.45}, {128, 0.30}, {2048, 0.15}, {8192, 0.10}},
		FreeProb: 0.95, MaxLive: 5000, Sized: true,
		WorkCyclesMin: 9000, WorkCyclesMax: 15000, WorkLines: 6,
		FootprintBytes: 2 << 20,
	})
}

// NewOmnetpp models 471.omnetpp: discrete-event simulation with a very
// high rate of small event-object churn.
func NewOmnetpp() Workload {
	return NewMacro(MacroConfig{
		WName:    "471.omnetpp",
		Mix:      []SizeWeight{{40, 0.50}, {80, 0.30}, {208, 0.15}, {416, 0.05}},
		FreeProb: 1.0, MaxLive: 30000, Sized: true,
		WorkCyclesMin: 550, WorkCyclesMax: 950, WorkLines: 3,
		FootprintBytes: 2 << 20,
	})
}

// NewXalancbmk models 483.xalancbmk: the broadest size-class distribution
// of the suite (30 classes for 90% coverage, Fig. 6) with significant
// cache pressure from the XML document tree.
func NewXalancbmk() Workload {
	mix := []SizeWeight{{16, 0.22}, {32, 0.18}, {28, 0.06}, {64, 0.12}, {48, 0.08}}
	// Long tail of node and buffer sizes with geometric weights.
	w := 0.035
	for _, s := range []uint64{96, 144, 176, 240, 320, 448, 576, 704, 896, 1152, 1408, 1792, 2304, 2816, 3584, 4608, 5632, 7168, 9216} {
		mix = append(mix, SizeWeight{s, w})
		w *= 0.93
	}
	return NewMacro(MacroConfig{
		WName: "483.xalancbmk",
		Mix:   mix, TailProb: 0.10, TailMax: 12288,
		FreeProb: 0.92, MaxLive: 40000, Sized: true,
		WorkCyclesMin: 1200, WorkCyclesMax: 1950, WorkLines: 5,
		FootprintBytes: 6 << 20,
		LargeEvery:     25000, LargeSize: 384 << 10,
	})
}

// NewMasstreeSame models masstree.same: the key-value store's performance
// test, which never frees and continuously grows the tree — so the
// allocator keeps going back to the page allocator (Sec. 3.2).
func NewMasstreeSame() Workload {
	return NewMacro(MacroConfig{
		WName:     "masstree.same",
		Mix:       []SizeWeight{{272, 0.94}, {64, 0.06}},
		NeverFree: true,
		// Periodic value-log/arena chunk allocations (>256 KiB) go
		// straight to the page allocator, which with never-free keeps
		// demanding OS memory — the behaviour Sec. 3.2 describes.
		LargeEvery: 24, LargeSize: 384 << 10,
		WorkCyclesMin: 300, WorkCyclesMax: 600, WorkLines: 4,
		FootprintBytes: 8 << 20,
	})
}

// NewMasstreeWcol1 models masstree.wcol1: same never-free behaviour with a
// wider node/value mix and more per-operation work.
func NewMasstreeWcol1() Workload {
	return NewMacro(MacroConfig{
		WName:      "masstree.wcol1",
		Mix:        []SizeWeight{{272, 0.68}, {1040, 0.24}, {64, 0.08}},
		NeverFree:  true,
		LargeEvery: 64, LargeSize: 384 << 10,
		WorkCyclesMin: 750, WorkCyclesMax: 1300, WorkLines: 6,
		FootprintBytes: 8 << 20,
	})
}

// NewXapianAbstracts models xapian.abstracts: query execution over an
// index of page abstracts — a tiny set of size classes (Fig. 6), almost
// pure fast path (Sec. 6.1).
func NewXapianAbstracts() Workload {
	return NewMacro(MacroConfig{
		WName:    "xapian.abstracts",
		Mix:      []SizeWeight{{32, 0.42}, {64, 0.38}, {128, 0.14}, {512, 0.06}},
		FreeProb: 0.98, MaxLive: 8000, Sized: true,
		WorkCyclesMin: 600, WorkCyclesMax: 1400, WorkLines: 5,
		FootprintBytes: 4 << 20,
	})
}

// NewXapianPages models xapian.pages: the same engine over full articles —
// same classes, more application work per allocation.
func NewXapianPages() Workload {
	return NewMacro(MacroConfig{
		WName:    "xapian.pages",
		Mix:      []SizeWeight{{32, 0.40}, {64, 0.38}, {128, 0.15}, {512, 0.07}},
		FreeProb: 0.98, MaxLive: 8000, Sized: true,
		WorkCyclesMin: 1200, WorkCyclesMax: 2600, WorkLines: 7,
		FootprintBytes: 4 << 20,
	})
}
