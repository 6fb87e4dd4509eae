package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mallacc/internal/multicore"
	"mallacc/internal/progress"
)

// gridExperiments are the experiments whose single-core cells run as a
// concurrent grid (runGrid).
var gridExperiments = []string{
	"fig1", "fig2", "table1", "fig4", "fig6", "fig13", "fig14", "fig15", "fig16",
	"fig17", "fig18", "table2", "ablation", "crossalloc", "ctxswitch", "frag", "buddy",
}

// withGOMAXPROCS runs f with the scheduler width set to n.
func withGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// recordSnapshots collects an experiment's progress snapshots.
type recordSnapshots struct{ got []progress.Snapshot }

func (r *recordSnapshots) Report(s progress.Snapshot) { r.got = append(r.got, s) }

// TestGridFanOutByteIdentical runs every grid experiment at GOMAXPROCS 1
// (cells in sequence) and 4 (cells overlapping) and demands byte-identical
// reports and identical progress streams: results and snapshots are
// consumed in grid order, never completion order.
func TestGridFanOutByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every grid experiment twice")
	}
	for _, id := range gridExperiments {
		exp, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		render := func(procs int) ([]byte, []progress.Snapshot) {
			var b []byte
			rec := &recordSnapshots{}
			withGOMAXPROCS(procs, func() {
				rep := exp.Run(ExpOptions{Calls: 1200, Seeds: 2, Seed: 1, Metrics: true, Progress: rec})
				var err error
				if b, err = rep.JSON(); err != nil {
					t.Fatalf("%s: render: %v", id, err)
				}
			})
			return b, rec.got
		}
		seq, seqProg := render(1)
		par, parProg := render(4)
		if !bytes.Equal(seq, par) {
			t.Errorf("%s: report differs between GOMAXPROCS 1 and 4", id)
		}
		if len(seqProg) == 0 {
			t.Errorf("%s: no progress snapshots", id)
		}
		if !reflect.DeepEqual(seqProg, parProg) {
			t.Errorf("%s: progress stream differs between GOMAXPROCS 1 and 4", id)
		}
	}
}

// TestClusterGridFanOut runs the cluster-grid experiments through an
// injected concurrent SubmitCluster at GOMAXPROCS 1 and 4. Reports and
// progress streams must be identical; the 4-wide run must actually overlap
// cells yet never hold more than widest + widest/2 simulated cores in
// flight.
func TestClusterGridFanOut(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the cluster-grid experiments twice")
	}
	const widest = 8
	for _, id := range []string{"scale", "designspace"} {
		exp, _ := ByID(id)
		type run struct {
			report           []byte
			progress         []progress.Snapshot
			peakCells, peakC int32
		}
		render := func(procs int) run {
			var r run
			var cells, cores, peakCells, peakCores atomic.Int32
			rec := &recordSnapshots{}
			withGOMAXPROCS(procs, func() {
				rep := exp.Run(ExpOptions{Calls: 800, Seed: 1, Metrics: true, Cores: widest, Progress: rec,
					SubmitCluster: func(cfg multicore.Config) *multicore.Result {
						raise(&peakCells, cells.Add(1))
						raise(&peakCores, cores.Add(int32(cfg.Cores)))
						defer cells.Add(-1)
						defer cores.Add(-int32(cfg.Cores))
						return multicore.Run(cfg)
					}})
				var err error
				if r.report, err = rep.JSON(); err != nil {
					t.Fatalf("%s: render: %v", id, err)
				}
			})
			r.progress = rec.got
			r.peakCells, r.peakC = peakCells.Load(), peakCores.Load()
			return r
		}
		seq, par := render(1), render(4)
		if !bytes.Equal(seq.report, par.report) {
			t.Errorf("%s: report differs between GOMAXPROCS 1 and 4", id)
		}
		if len(seq.progress) == 0 || !reflect.DeepEqual(seq.progress, par.progress) {
			t.Errorf("%s: progress streams differ between GOMAXPROCS 1 and 4 (%d vs %d snapshots)", id, len(seq.progress), len(par.progress))
		}
		if seq.peakCells != 1 {
			t.Errorf("%s: %d cells in flight at GOMAXPROCS 1, want 1", id, seq.peakCells)
		}
		if par.peakCells < 2 {
			t.Errorf("%s: the 4-wide run never overlapped cells", id)
		}
		if par.peakC > widest+widest/2 {
			t.Errorf("%s: %d simulated cores in flight, budget %d", id, par.peakC, widest+widest/2)
		}
	}
}

// raise lifts *max to at least v.
func raise(max *atomic.Int32, v int32) {
	for m := max.Load(); v > m && !max.CompareAndSwap(m, v); m = max.Load() {
	}
}

// TestForEachCellBudget checks the admission rule on a synthetic grid:
// one at a time the cells start widest first; four wide they overlap, but
// the cores in flight never exceed widest + widest/2.
func TestForEachCellBudget(t *testing.T) {
	cores := []int{1, 16, 2, 8, 16, 4, 8, 1, 16}
	for _, width := range []int{1, 4} {
		var mu sync.Mutex
		var load, peak int
		var started, order []int
		forEachCell(len(cores), width, cores, func(i int) {
			mu.Lock()
			started = append(started, cores[i])
			load += cores[i]
			peak = max(peak, load)
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
			mu.Lock()
			load -= cores[i]
			mu.Unlock()
		}, func(i int) { order = append(order, i) })
		if width == 1 && !reflect.DeepEqual(started, []int{16, 16, 16, 8, 8, 4, 2, 1, 1}) {
			t.Fatalf("width 1 started cells of %v cores, want widest first", started)
		}
		if width == 4 && (peak <= 16 || peak > 24) {
			t.Fatalf("width 4 peaked at %d cores in flight, want overlap within the budget of 24", peak)
		}
		if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}) {
			t.Fatalf("width %d done order %v, want grid order", width, order)
		}
	}
}

// TestGridProgressCumulative checks the experiment progress contract: one
// snapshot per cell, numbered from 0, with cumulative counters.
func TestGridProgressCumulative(t *testing.T) {
	rec := &recordSnapshots{}
	Figure13(ExpOptions{Calls: 1000, Seed: 1, Progress: rec})
	if len(rec.got) != 24 {
		t.Fatalf("fig13 reported %d snapshots, want one per cell (24)", len(rec.got))
	}
	for i, s := range rec.got {
		if s.Seq != i {
			t.Fatalf("snapshot %d has seq %d", i, s.Seq)
		}
		if i > 0 && (s.Cycles <= rec.got[i-1].Cycles || s.MallocCalls <= rec.got[i-1].MallocCalls) {
			t.Fatalf("snapshot %d not cumulative: %+v after %+v", i, s, rec.got[i-1])
		}
	}
}

// TestGridSubmitterOverlaps checks that the grid really calls the
// submitter concurrently, and only up to GOMAXPROCS at once.
func TestGridSubmitterOverlaps(t *testing.T) {
	var inFlight, peak atomic.Int32
	withGOMAXPROCS(3, func() {
		Figure2(ExpOptions{Calls: 500, Seed: 1, Submit: func(o Options) *Result {
			n := inFlight.Add(1)
			defer inFlight.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(30 * time.Millisecond)
			return Run(o)
		}})
	})
	if p := peak.Load(); p != 3 {
		t.Fatalf("peak concurrent submissions %d, want 3 (GOMAXPROCS)", p)
	}
}

// TestForEachCellOrder finishes cells in reverse order and checks that
// done still sees them in input order, never overlapping.
func TestForEachCellOrder(t *testing.T) {
	const n = 12
	var order []int
	var inDone atomic.Int32
	forEachCell(n, 4, nil, func(i int) {
		time.Sleep(time.Duration(n-i) * time.Millisecond)
	}, func(i int) {
		if inDone.Add(1) != 1 {
			t.Error("done calls overlap")
		}
		order = append(order, i)
		inDone.Add(-1)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("done order %v, want 0..%d", order, n-1)
		}
	}
	if len(order) != n {
		t.Fatalf("done called %d times, want %d", len(order), n)
	}
}

// TestForEachCellPanic panics in cell k: the caller must see the same
// panic value, after the other cells stopped, with no cell goroutine left
// behind and done never called at or past k.
func TestForEachCellPanic(t *testing.T) {
	type sentinel struct{ cell int }
	const n, k = 16, 5
	before := runtime.NumGoroutine()
	var mu sync.Mutex
	var started, doneUpTo []int
	var running atomic.Int32
	got := func() (r any) {
		defer func() { r = recover() }()
		forEachCell(n, 4, nil, func(i int) {
			running.Add(1)
			defer running.Add(-1)
			mu.Lock()
			started = append(started, i)
			mu.Unlock()
			if i == k {
				panic(sentinel{i})
			}
			time.Sleep(2 * time.Millisecond)
		}, func(i int) {
			doneUpTo = append(doneUpTo, i)
		})
		return nil
	}()
	if got != (sentinel{k}) {
		t.Fatalf("recovered %v, want the cell's panic value %v", got, sentinel{k})
	}
	if r := running.Load(); r != 0 {
		t.Fatalf("%d cells still running when the panic reached the caller", r)
	}
	for _, i := range doneUpTo {
		if i >= k {
			t.Fatalf("done called for cell %d at or past the panicking cell %d", i, k)
		}
	}
	if len(started) == n {
		t.Fatalf("every cell started despite the panic in cell %d", k)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExperimentSubmitPanicPropagates makes one fig13 cell's submitter
// panic and expects the experiment to re-raise that value on its caller,
// as a run-boundary cancellation sentinel must.
func TestExperimentSubmitPanicPropagates(t *testing.T) {
	want := fmt.Errorf("cell aborted")
	withGOMAXPROCS(4, func() {
		got := func() (r any) {
			defer func() { r = recover() }()
			Figure13(ExpOptions{Calls: 500, Seed: 1, Submit: func(o Options) *Result {
				if o.Workload.Name() == "masstree.same" && o.Variant == multicore.Mallacc {
					panic(want)
				}
				return Run(o)
			}})
			return nil
		}()
		if got != want {
			t.Fatalf("recovered %v, want the submitter's panic value", got)
		}
	})
}
