package cpu

import (
	"testing"
	"testing/quick"

	"mallacc/internal/cachesim"
	"mallacc/internal/stats"
	"mallacc/internal/uop"
)

func newCore() *Core {
	return New(DefaultConfig(), cachesim.NewDefaultHierarchy())
}

func runOps(c *Core, build func(e *uop.Emitter)) uint64 {
	e := uop.NewEmitter()
	e.Reset()
	build(e)
	return c.RunTrace(e.Trace())
}

func TestDependentALUChainLatency(t *testing.T) {
	c := newCore()
	// 10 serially dependent single-cycle ops: >= 10 cycles, plus bounded
	// pipeline overhead.
	dur := runOps(c, func(e *uop.Emitter) {
		e.ALUChain(10, uop.NoDep)
	})
	if dur < 10 || dur > 16 {
		t.Fatalf("10-deep ALU chain took %d cycles", dur)
	}
}

func TestIndependentALUWidth(t *testing.T) {
	c := newCore()
	// 32 independent ALU ops on 4 ports: at least 8 cycles of issue, and
	// not much more.
	dur := runOps(c, func(e *uop.Emitter) {
		for i := 0; i < 32; i++ {
			e.ALU(uop.NoDep, uop.NoDep)
		}
	})
	if dur < 8 || dur > 16 {
		t.Fatalf("32 independent ALUs took %d cycles", dur)
	}
}

func TestLoadLatencyWarmAndCold(t *testing.T) {
	c := newCore()
	cold := runOps(c, func(e *uop.Emitter) { e.Load(0x100000, uop.NoDep) })
	warm := runOps(c, func(e *uop.Emitter) { e.Load(0x100000, uop.NoDep) })
	if cold < 230 {
		t.Fatalf("cold load call took %d cycles, want >= 230", cold)
	}
	if warm > 12 {
		t.Fatalf("warm load call took %d cycles", warm)
	}
}

func TestDependentLoadChain(t *testing.T) {
	c := newCore()
	// Warm two lines first.
	runOps(c, func(e *uop.Emitter) {
		e.Load(0x1000, uop.NoDep)
		e.Load(0x2000, uop.NoDep)
	})
	// The Figure 7 pattern: two dependent warm loads ~ 2 x 4 cycles.
	dur := runOps(c, func(e *uop.Emitter) {
		v := e.Load(0x1000, uop.NoDep)
		e.Load(0x2000, v)
	})
	if dur < 8 || dur > 14 {
		t.Fatalf("dependent warm load pair took %d cycles", dur)
	}
}

func TestStoreCommitsWithoutWaiting(t *testing.T) {
	c := newCore()
	// A cold store must not add DRAM latency to the call (senior store
	// queue semantics).
	dur := runOps(c, func(e *uop.Emitter) {
		e.Store(0x900000, uop.NoDep, uop.NoDep)
	})
	if dur > 10 {
		t.Fatalf("cold store call took %d cycles", dur)
	}
}

func TestMispredictPenalty(t *testing.T) {
	c := newCore()
	mk := func(taken bool) uint64 {
		return runOps(c, func(e *uop.Emitter) {
			v := e.ALU(uop.NoDep, uop.NoDep)
			e.Branch(777, taken, v)
			e.ALUChain(4, uop.NoDep)
		})
	}
	mk(false) // train not-taken
	mk(false)
	base := mk(false)
	flipped := mk(true) // mispredict
	if flipped < base+c.cfg.MispredictPenalty-2 {
		t.Fatalf("mispredict cost: trained=%d flipped=%d", base, flipped)
	}
	if c.Stats.Mispredicts == 0 {
		t.Fatal("no mispredicts recorded")
	}
}

func TestBranchPredictorLearns(t *testing.T) {
	bp := NewBranchPredictor()
	// Always-taken site converges to predicting taken.
	for i := 0; i < 4; i++ {
		bp.PredictAndUpdate(5, true)
	}
	if !bp.PredictAndUpdate(5, true) {
		t.Fatal("predictor failed to learn always-taken")
	}
	// One not-taken shouldn't flip a saturated counter.
	bp.PredictAndUpdate(5, false)
	if !bp.PredictAndUpdate(5, true) {
		t.Fatal("2-bit hysteresis missing")
	}
}

func TestDropStepsZeroCost(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DropSteps[uop.StepSizeClass] = true
	c := New(cfg, cachesim.NewDefaultHierarchy())
	dur := runOps(c, func(e *uop.Emitter) {
		e.Step(uop.StepSizeClass)
		// A long, expensive chain that should be ignored entirely.
		v := e.Load(0x700000, uop.NoDep)
		v = e.Load(0x710000, v)
		e.ALUChain(50, v)
		e.Step(uop.StepOther)
		e.ALU(uop.NoDep, uop.NoDep)
	})
	if dur > 6 {
		t.Fatalf("dropped-step trace took %d cycles", dur)
	}
}

func TestMSHRLimitSerializesMisses(t *testing.T) {
	few := New(DefaultConfig(), cachesim.NewDefaultHierarchy())
	cfg := DefaultConfig()
	cfg.MSHRs = 1
	one := New(cfg, cachesim.NewDefaultHierarchy())
	build := func(e *uop.Emitter) {
		for i := 0; i < 8; i++ {
			e.Load(uint64(0x2000000+i*4096), uop.NoDep)
		}
	}
	durMany := runOps(few, build)
	durOne := runOps(one, build)
	if durOne < 2*durMany {
		t.Fatalf("1 MSHR (%d cycles) should be far slower than 10 (%d)", durOne, durMany)
	}
}

func TestMallaccEntryBlockingOnPrefetch(t *testing.T) {
	c := newCore()
	// A prefetch to cold memory blocks its entry; a pop right after must
	// wait for the fill.
	dur := runOps(c, func(e *uop.Emitter) {
		e.Mallacc(uop.McNxtPrefetch, 3, true, 0x3000000, uop.NoDep, 0)
		e.Mallacc(uop.McHdPop, 3, true, 0, uop.NoDep, 0)
	})
	if dur < 200 {
		t.Fatalf("pop did not block on outstanding prefetch: %d cycles", dur)
	}
	// A different entry is not blocked.
	dur = runOps(c, func(e *uop.Emitter) {
		e.Mallacc(uop.McNxtPrefetch, 4, true, 0x3010000, uop.NoDep, 0)
	})
	dur = runOps(c, func(e *uop.Emitter) {
		e.Mallacc(uop.McHdPop, 5, true, 0, uop.NoDep, 0)
	})
	if dur > 10 {
		t.Fatalf("unrelated entry blocked: %d cycles", dur)
	}
}

func TestContextSwitchClearsBlocking(t *testing.T) {
	c := newCore()
	runOps(c, func(e *uop.Emitter) {
		e.Mallacc(uop.McNxtPrefetch, 7, true, 0x4000000, uop.NoDep, 0)
	})
	c.ContextSwitch()
	dur := runOps(c, func(e *uop.Emitter) {
		e.Mallacc(uop.McHdPop, 7, true, 0, uop.NoDep, 0)
	})
	if dur > 10 {
		t.Fatalf("blocking survived context switch: %d cycles", dur)
	}
}

func TestAdvanceAppMovesClockAndCaches(t *testing.T) {
	c := newCore()
	before := c.Cycle()
	c.AdvanceApp(1234, []uint64{0x5000})
	if c.Cycle() != before+1234 {
		t.Fatalf("clock advanced to %d", c.Cycle())
	}
	dur := runOps(c, func(e *uop.Emitter) { e.Load(0x5000, uop.NoDep) })
	if dur > 12 {
		t.Fatalf("touched line not warm: %d cycles", dur)
	}
}

func TestEmptyTrace(t *testing.T) {
	c := newCore()
	if d := c.RunTrace(uop.Trace{}); d != 0 {
		t.Fatalf("empty trace took %d cycles", d)
	}
}

// TestAnalyticTracksDetailedProperty: on random traces, the analytic
// reference and the detailed model must stay within a constant factor —
// the analytic is a bandwidth/dataflow bound, the detailed adds structural
// effects.
func TestAnalyticTracksDetailedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		e := uop.NewEmitter()
		e.Reset()
		n := 5 + rng.Intn(120)
		for i := 0; i < n; i++ {
			dep := uop.NoDep
			if i > 0 && rng.Bernoulli(0.5) {
				dep = uop.Val(rng.Intn(i))
			}
			switch rng.Intn(5) {
			case 0:
				e.Load(rng.Uint64n(1<<24), dep)
			case 1:
				e.Store(rng.Uint64n(1<<24), dep, uop.NoDep)
			case 2:
				e.Branch(uint32(rng.Intn(8)), rng.Bernoulli(0.5), dep)
			case 3:
				e.ALUWithLat(3, dep, uop.NoDep)
			default:
				e.ALU(dep, uop.NoDep)
			}
		}
		tr := e.Trace()
		det := New(DefaultConfig(), cachesim.NewDefaultHierarchy())
		ana := New(DefaultConfig(), cachesim.NewDefaultHierarchy())
		ana.SetAnalytic(true)
		d := det.RunTrace(tr)
		a := ana.RunTrace(tr)
		if a == 0 || d == 0 {
			return false
		}
		diff := float64(d) - float64(a)
		if diff < 0 {
			diff = -diff
		}
		ratio := float64(d) / float64(a)
		// Structural effects (mispredict redirects, port conflicts) give
		// constant absolute slack on short traces; proportional agreement
		// is required once traces are long enough to amortize them.
		return diff <= 100 || (ratio > 0.4 && ratio < 3.5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIPCStat(t *testing.T) {
	c := newCore()
	runOps(c, func(e *uop.Emitter) {
		for i := 0; i < 40; i++ {
			e.ALU(uop.NoDep, uop.NoDep)
		}
	})
	if ipc := c.Stats.IPC(); ipc < 2.0 || ipc > 4.0 {
		t.Fatalf("independent-ALU IPC = %.2f, want near commit width", ipc)
	}
}

func TestROBLimitsInFlightWork(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBSize = 8
	small := New(cfg, cachesim.NewDefaultHierarchy())
	big := newCore()
	// A long-latency op at the head followed by many independent ops: a
	// tiny ROB must serialize behind the stalled head.
	build := func(e *uop.Emitter) {
		e.Load(0x9000000, uop.NoDep) // cold: ~230 cycles
		for i := 0; i < 64; i++ {
			e.ALU(uop.NoDep, uop.NoDep)
		}
	}
	dSmall := runOps(small, build)
	dBig := runOps(big, build)
	if dSmall <= dBig {
		t.Fatalf("8-entry ROB (%d) should be slower than 192 (%d)", dSmall, dBig)
	}
}

func TestMallaccSinglePort(t *testing.T) {
	c := newCore()
	// Two independent lookups serialize on the single malloc-cache port.
	dur := runOps(c, func(e *uop.Emitter) {
		e.Mallacc(uop.McSzLookup, 0, true, 0, uop.NoDep, 0)
		e.Mallacc(uop.McSzLookup, 1, true, 0, uop.NoDep, 0)
	})
	if dur < 3 {
		t.Fatalf("two lookups on one port took %d cycles", dur)
	}
}

func TestNoPrefetchBlockingConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoPrefetchBlocking = true
	c := New(cfg, cachesim.NewDefaultHierarchy())
	dur := runOps(c, func(e *uop.Emitter) {
		e.Mallacc(uop.McNxtPrefetch, 3, true, 0x3000000, uop.NoDep, 0)
		e.Mallacc(uop.McHdPop, 3, true, 0, uop.NoDep, 0)
	})
	if dur > 12 {
		t.Fatalf("blocking still applied with NoPrefetchBlocking: %d", dur)
	}
}

func TestAnalyticDeterminism(t *testing.T) {
	build := func(e *uop.Emitter) {
		v := e.Load(0x1000, uop.NoDep)
		e.Store(0x2000, v, uop.NoDep)
		e.ALUChain(5, v)
	}
	a := New(DefaultConfig(), cachesim.NewDefaultHierarchy())
	b := New(DefaultConfig(), cachesim.NewDefaultHierarchy())
	a.SetAnalytic(true)
	b.SetAnalytic(true)
	if runOps(a, build) != runOps(b, build) {
		t.Fatal("analytic model not deterministic")
	}
}

// TestNewRejectsWidthsAbove255 pins the reservation table's count range:
// 255 per cycle is accepted, and a FetchWidth or port count of 256 panics
// instead of wrapping its 8-bit count.
func TestNewRejectsWidthsAbove255(t *testing.T) {
	widths := map[string]func(*Config) *int{
		"FetchWidth":   func(c *Config) *int { return &c.FetchWidth },
		"ALUPorts":     func(c *Config) *int { return &c.ALUPorts },
		"LoadPorts":    func(c *Config) *int { return &c.LoadPorts },
		"StorePorts":   func(c *Config) *int { return &c.StorePorts },
		"BranchPorts":  func(c *Config) *int { return &c.BranchPorts },
		"MallaccPorts": func(c *Config) *int { return &c.MallaccPorts },
	}
	for name, field := range widths {
		for _, n := range []int{255, 256} {
			cfg := DefaultConfig()
			*field(&cfg) = n
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				New(cfg, cachesim.NewDefaultHierarchy())
				return false
			}()
			if panicked != (n > 255) {
				t.Errorf("%s = %d: panicked %v", name, n, panicked)
			}
		}
	}
}
