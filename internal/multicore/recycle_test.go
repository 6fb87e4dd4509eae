package multicore

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"mallacc/internal/catalog"
)

// Engines take their simulated cores from cpu's pool and return them when
// their run is over, so an engine's cores have been used by other engines
// before, of other configurations and on other goroutines. This test pins
// that this is invisible.

// recycleGrid is a small designspace-shaped grid: every strategy at one,
// two and four cores, plus each strategy's solo run.
func recycleGrid(t *testing.T) []func() any {
	t.Helper()
	var cells []func() any
	for _, s := range catalog.Strategies() {
		v, ok := VariantByName(s.Variant)
		if !ok {
			t.Fatalf("strategy %s: unknown variant %q", s.Name, s.Variant)
		}
		cfg := Config{Variant: v, Backend: s.Backend, Workload: wl(t, "xapian.abstracts"), CallsPerCore: 300, Seed: 1}
		for _, n := range []int{1, 2, 4} {
			cfg.Cores = n
			cfg := cfg
			cells = append(cells, func() any { return Run(cfg) })
		}
		cells = append(cells, func() any { return RunSolo(cfg, nil) })
	}
	return cells
}

// TestConcurrentGridMatchesSequential runs the grid once in sequence, then
// from four goroutines at once, each starting at a different cell, so cores
// pass between configurations and goroutines mid-grid. Every result must
// be byte-identical to the sequential one.
func TestConcurrentGridMatchesSequential(t *testing.T) {
	cells := recycleGrid(t)
	want := make([][]byte, len(cells))
	for i, run := range cells {
		b, err := json.Marshal(run())
		if err != nil {
			t.Fatalf("cell %d: marshal result: %v", i, err)
		}
		want[i] = b
	}
	const workers = 4
	got := make([][][]byte, workers)
	errs := make([][]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		got[w] = make([][]byte, len(cells))
		errs[w] = make([]error, len(cells))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range cells {
				i := (k + w*len(cells)/workers) % len(cells)
				got[w][i], errs[w][i] = json.Marshal(cells[i]())
			}
		}()
	}
	wg.Wait()
	for w := range workers {
		for i := range cells {
			if errs[w][i] != nil {
				t.Errorf("worker %d, cell %d: marshal result: %v", w, i, errs[w][i])
			} else if !bytes.Equal(got[w][i], want[i]) {
				t.Errorf("worker %d, cell %d: result differs from the sequential run", w, i)
			}
		}
	}
}
