package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mallacc/internal/workload"
)

// TestPeakLiveBytesGolden pins the driver's live-byte accounting: the peak
// rounded-live footprint of every macro and micro workload under each
// variant must match testdata/peak_live.golden. The frag experiment is the
// only report that reads PeakLiveBytes and no pinned digest covers it, so
// this golden is what guards how the driver sizes a freed object.
//
// Regenerate with UPDATE_GOLDEN=1 go test ./internal/harness -run
// TestPeakLiveBytesGolden (only when the accounting is meant to change).
func TestPeakLiveBytesGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, w := range append(workload.Macro(), workload.Micro()...) {
		for _, v := range []Variant{VariantBaseline, VariantMallacc, VariantLimit} {
			r := Run(Options{Workload: w, Variant: v, Calls: 3000, Seed: 1})
			fmt.Fprintf(&buf, "%-22s %-8s %d\n", w.Name(), v, r.PeakLiveBytes)
		}
	}
	golden := filepath.Join("testdata", "peak_live.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("peak live bytes drifted from %s:\ngot:\n%swant:\n%s", golden, buf.Bytes(), want)
	}
}
