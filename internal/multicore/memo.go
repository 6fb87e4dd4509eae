package multicore

import (
	"sync"
	"sync/atomic"

	"mallacc/internal/cpu"
	"mallacc/internal/telemetry"
)

// Schedule memos (cpu.Memo) outlive engines: an engine takes one at build,
// shares it among its cores (they share one cpu.Config and L1D latency and
// run one at a time under the relay) and returns it when its run is over,
// so back-to-back cells of one configuration start with the schedules the
// previous cell stored. The free list is a plain mutex-guarded stack
// rather than a sync.Pool, which the GC empties between cells.
var memoFree struct {
	sync.Mutex
	list []*cpu.Memo
}

// memoFreeMax bounds the idle memos kept for reuse (about 0.5 MB each).
const memoFreeMax = 4

// Process-wide memo counters, folded in once per engine at teardown.
var memoHits, memoMisses, memoResets atomic.Uint64

func takeMemo() *cpu.Memo {
	memoFree.Lock()
	defer memoFree.Unlock()
	if n := len(memoFree.list); n > 0 {
		m := memoFree.list[n-1]
		memoFree.list = memoFree.list[:n-1]
		return m
	}
	return cpu.NewMemo()
}

// putMemo folds m's counters into the process-wide ones and keeps m for
// the next engine when the free list has room.
func putMemo(m *cpu.Memo) {
	memoHits.Add(m.Stats.Hits)
	memoMisses.Add(m.Stats.Misses)
	memoResets.Add(m.Stats.Resets)
	m.Stats = cpu.MemoStats{}
	memoFree.Lock()
	defer memoFree.Unlock()
	if len(memoFree.list) < memoFreeMax {
		memoFree.list = append(memoFree.list, m)
	}
}

// RegisterMemoMetrics adds the process-wide schedule-memo counters to reg
// as cpu.memo.hits, cpu.memo.misses and cpu.memo.resets. They cover every
// engine that finished in this process, so they belong on a service's
// registry, never in a run report.
func RegisterMemoMetrics(reg *telemetry.Registry) {
	reg.Counter("cpu.memo.hits", memoHits.Load)
	reg.Counter("cpu.memo.misses", memoMisses.Load)
	reg.Counter("cpu.memo.resets", memoResets.Load)
}
