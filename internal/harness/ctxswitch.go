package harness

import "fmt"

// The context-switch study is an extension probing a design property the
// paper asserts but does not evaluate: because the malloc cache only holds
// copies, "at interrupts or context switches, the whole cache can always
// be flushed without writebacks or correctness concerns" (Sec. 4.1). The
// question it leaves open is how fast the cache re-learns after a flush —
// i.e. how much of Mallacc's benefit survives realistic scheduling.

var ctxWorkloads = []string{"ubench.tp_small", "xapian.pages", "483.xalancbmk"}

// ctxIntervals are the switch periods swept, in allocator calls between
// switches (0 = never).
var ctxIntervals = []int{0, 10000, 3000, 1000, 300, 100}

// CtxSwitch measures Mallacc's allocator-time improvement and hit rates
// under increasingly frequent context switches (4 threads round-robin,
// malloc cache flushed at each switch).
func CtxSwitch(opt ExpOptions) *Report {
	opt = opt.withDefaults()
	rep := &Report{ID: "ctxswitch", Title: "Mallacc under context switches (4 threads, flush per switch)"}
	rep.Notes = append(rep.Notes,
		"extension: quantifies the flush-without-writebacks property of Sec. 4.1",
		"interval = allocator calls between switches; 0 = no switching",
		"tp_small's pop-hit cliff under switching reflects the other threads' cold, shallow thread-cache lists (pop hits need two cached elements), not flush cost itself")

	header := []string{"workload"}
	for _, iv := range ctxIntervals {
		if iv == 0 {
			header = append(header, "never")
		} else {
			header = append(header, fmt.Sprintf("1/%d", iv))
		}
	}
	tb := &table{header: header}
	hitTb := &table{header: header}
	var opts []Options
	for _, wn := range ctxWorkloads {
		w := mustWorkload(wn)
		for _, iv := range ctxIntervals {
			opts = append(opts,
				Options{Workload: w, Variant: VariantBaseline, Calls: opt.Calls, Seed: opt.Seed,
					Threads: 4, SwitchEvery: iv},
				Options{Workload: w, Variant: VariantMallacc, MCEntries: 16, Calls: opt.Calls, Seed: opt.Seed,
					Threads: 4, SwitchEvery: iv})
		}
	}
	results := opt.runGrid(opts)
	for wi, wn := range ctxWorkloads {
		row := []string{wn}
		hitRow := []string{wn}
		for ii := range ctxIntervals {
			cell := 2 * (wi*len(ctxIntervals) + ii)
			base, mall := results[cell], results[cell+1]
			imp := 100 * (float64(base.AllocatorCycles()) - float64(mall.AllocatorCycles())) / float64(base.AllocatorCycles())
			row = append(row, pct(imp))
			hitRow = append(hitRow, pct(100*mall.MC.PopHitRate()))
		}
		tb.addRow(row...)
		hitTb.addRow(hitRow...)
	}
	rep.Lines = append(rep.Lines, "allocator (malloc+free) time improvement:")
	rep.addTable("allocator (malloc+free) time improvement", tb)
	rep.Lines = append(rep.Lines, "", "malloc-cache pop hit rate:")
	rep.addTable("malloc-cache pop hit rate", hitTb)
	return rep
}
