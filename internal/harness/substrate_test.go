package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mallacc/internal/catalog"
	"mallacc/internal/workload"
)

// TestSubstrateGolden pins every single-core substrate the harness drives:
// the sha256 of each run's full JSON report (telemetry included) plus its
// PeakLiveBytes and OSBytes, for every (backend, variant, threading)
// combination Run serves, and the sha256 of the cross-allocator and buddy
// experiment reports, which drive jemalloc, Hoard and buddy. No pinned
// digest under results/metrics covers these paths, so this golden is what
// holds them byte-identical across changes to the workload drivers.
//
// Regenerate with UPDATE_GOLDEN=1 go test ./internal/harness -run
// TestSubstrateGolden (only when a substrate's results are meant to change).
func TestSubstrateGolden(t *testing.T) {
	combos := []struct {
		name string
		opt  Options
	}{
		{"tcmalloc/baseline", Options{Variant: VariantBaseline}},
		{"tcmalloc/mallacc", Options{Variant: VariantMallacc}},
		{"tcmalloc/limit", Options{Variant: VariantLimit}},
		{"tcmalloc/offload", Options{Variant: VariantOffload}},
		{"lockfree/baseline", Options{Backend: catalog.BackendLockFree, Variant: VariantBaseline}},
		{"lockfree/mallacc", Options{Backend: catalog.BackendLockFree, Variant: VariantMallacc}},
		{"tcmalloc/mallacc/t4s500", Options{Variant: VariantMallacc, Threads: 4, SwitchEvery: 500}},
		{"lockfree/baseline/t4s500", Options{Backend: catalog.BackendLockFree, Variant: VariantBaseline, Threads: 4, SwitchEvery: 500}},
	}
	var buf bytes.Buffer
	for _, c := range combos {
		for _, wn := range []string{"ubench.tp_small", "ubench.gauss_free", "xapian.pages", "483.xalancbmk"} {
			w, ok := workload.ByName(wn)
			if !ok {
				t.Fatalf("unknown workload %s", wn)
			}
			opt := c.opt
			opt.Workload, opt.Calls, opt.Seed = w, 3000, 1
			r := Run(opt)
			js, err := ReportForRun(r, true).JSON()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%-24s %-18s %x peak=%d os=%d\n", c.name, wn, sha256.Sum256(js), r.PeakLiveBytes, r.OSBytes)
		}
	}
	for _, e := range []struct {
		name string
		run  func(ExpOptions) *Report
	}{{"crossalloc", CrossAlloc}, {"buddy", Buddy}} {
		js, err := e.run(ExpOptions{Calls: 3000, Seed: 1}).JSON()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%-24s %x\n", e.name, sha256.Sum256(js))
	}

	golden := filepath.Join("testdata", "substrate.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("substrate results drifted from %s:\ngot:\n%swant:\n%s", golden, buf.Bytes(), want)
	}
}
