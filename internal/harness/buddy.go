package harness

import (
	"fmt"

	"mallacc/internal/buddy"
	"mallacc/internal/mem"
	"mallacc/internal/multicore"
	"mallacc/internal/tcmalloc"
)

// The buddy experiment completes the paper's Sec. 2 argument for why
// Mallacc accelerates free-list allocators instead of putting a buddy
// allocator in hardware (as prior work did): a combinational buddy unit
// answers in a handful of cycles — beating even the Mallacc fast path —
// but pays unbounded power-of-two internal fragmentation, while Mallacc
// keeps TCMalloc's bounded-fragmentation size classes.

// runBuddy drives opt.Workload through the hardware buddy allocator and
// returns the run plus the allocator's internal fragmentation.
func runBuddy(opt Options) (*Result, float64) {
	h := buddy.New(mem.NewDefaultSpace())
	h.Variant = buddy.Hardware
	defer h.Em.Recycle()
	res := multicore.RunSolo(opt.Config(), &multicore.Hooks{
		Em:     h.Em,
		Malloc: h.Malloc,
		Free:   func(addr, _ uint64) { h.Free(addr) },
	})
	h.CheckInvariants()
	h.Space.Release()
	return res, h.Stats.InternalFragmentation()
}

var buddyWorkloads = []string{"471.omnetpp", "ubench.gauss_free", "xapian.pages", "483.xalancbmk"}

// Buddy compares a hardware buddy allocator against TCMalloc with and
// without Mallacc: mean malloc latency and internal fragmentation.
func Buddy(opt ExpOptions) *Report {
	opt = opt.withDefaults()
	rep := &Report{ID: "buddy", Title: "Hardware buddy allocator vs TCMalloc+Mallacc (speed and fragmentation)"}
	rep.Notes = append(rep.Notes,
		"extension: the Sec. 2 tradeoff — prior hardware allocators implemented buddy systems (combinational, very fast)",
		"but modern allocators abandoned them for fragmentation; frag = allocated/requested bytes (internal only)",
		"workloads dominated by power-of-two requests (xapian) escape the penalty; typical object sizes (omnetpp's 40/80/208B events) pay heavily")
	tb := &table{header: []string{"workload", "tcm-base cyc", "tcm-mallacc cyc", "hw-buddy cyc", "tcm frag", "buddy frag"}}
	ws := mustWorkloads(buddyWorkloads)
	results := opt.runGrid(variantGrid(opt, ws, multicore.Baseline, multicore.Mallacc))
	// Every heap generates the same classes; one table serves all rows.
	classes := tcmalloc.NewSizeMap(mem.NewArena(mem.NewDefaultSpace(), 0))
	for i, w := range ws {
		base, mall := results[2*i], results[2*i+1]
		hw, hwFrag := runBuddy(Options{Workload: w, Calls: opt.Calls, Seed: opt.Seed})
		tb.addRow(buddyWorkloads[i],
			fmt.Sprintf("%.1f", base.MeanMallocCycles()),
			fmt.Sprintf("%.1f", mall.MeanMallocCycles()),
			fmt.Sprintf("%.1f", hw.MeanMallocCycles()),
			fmt.Sprintf("%.2fx", tcmallocInternalFrag(classes, base)),
			fmt.Sprintf("%.2fx", hwFrag))
	}
	rep.addTable("", tb)
	return rep
}

// tcmallocInternalFrag estimates TCMalloc's internal fragmentation from
// the run's size-class usage: rounded/requested under the generated table.
func tcmallocInternalFrag(sm *tcmalloc.SizeMap, r *Result) float64 {
	// Reconstruct from class counts: each class's expected request is
	// approximated by the midpoint of (previous class size, class size] —
	// a slight overestimate of waste, still bounded by the 12.5% design
	// rule plus alignment.
	var alloc, req float64
	for cls, count := range r.ClassCounts {
		size := float64(sm.ClassSize(cls))
		prev := 0.0
		if cls > 1 {
			prev = float64(sm.ClassSize(cls - 1))
		}
		mid := (prev + size) / 2
		alloc += size * float64(count)
		req += mid * float64(count)
	}
	if req == 0 {
		return 0
	}
	return alloc / req
}
