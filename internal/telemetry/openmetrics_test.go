package telemetry

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mallacc/internal/stats"
)

// goldenSnapshot builds a registry exercising every metric kind plus the
// name-mangling edge cases, with deterministic values.
func goldenSnapshot() Snapshot {
	reg := NewRegistry()
	reg.Counter("jobs.submitted", func() uint64 { return 42 })
	reg.Describe("jobs.submitted", "Jobs admitted to the queue.")
	reg.Gauge("queue.depth", func() float64 { return 3.5 })
	reg.Counter("odd-name.1st", func() uint64 { return 7 }) // hyphen + digit segment
	h := stats.NewDurationHist()
	for _, v := range []uint64{1, 2, 3, 100, 1000} {
		h.Add(v)
	}
	reg.Histogram("malloc.cycles", h)
	reg.Describe("malloc.cycles", "Per-call malloc latency.\nSecond line \\ slash.")
	// The design-space backends' namespaces (internal/lockfree and
	// internal/offload register these shapes; the packages themselves can't
	// be imported here without a cycle).
	reg.Counter("lockfree.cas.retries", func() uint64 { return 9 })
	reg.Describe("lockfree.cas.retries", "Failed CAS attempts on size-class stack heads.")
	reg.Gauge("offload.queue.mean_depth", func() float64 { return 1.25 })
	reg.Describe("offload.queue.mean_depth", "Mean allocation-core queue depth observed at arrival.")
	return reg.Snapshot()
}

func TestOpenMetricsGolden(t *testing.T) {
	got := OpenMetrics(goldenSnapshot())
	golden := filepath.Join("testdata", "openmetrics.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1 go test ./internal/telemetry): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("exposition drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

func TestOpenMetricsLintsClean(t *testing.T) {
	doc := OpenMetrics(goldenSnapshot())
	if err := LintOpenMetrics(doc); err != nil {
		t.Fatalf("golden exposition fails its own linter: %v\n%s", err, doc)
	}
}

func TestMangleEdgeCases(t *testing.T) {
	cases := []struct{ in, want string }{
		{"mc.pop.hits", "mc_pop_hits"},
		{"odd-name", "odd_name"},
		{"1st.metric", "1st_metric"}, // prefix guards the leading digit
		{"UPPER.ok", "UPPER_ok"},
		{"sp ace/slash", "sp_ace_slash"},
		{"dots..doubled", "dots__doubled"},
	}
	for _, c := range cases {
		if got := mangle(c.in); got != c.want {
			t.Errorf("mangle(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestExposedNameCollisions(t *testing.T) {
	used := map[string]bool{}
	a := exposedName("a.b", used)
	b := exposedName("a-b", used)
	c := exposedName("a_b", used)
	if a != "mallacc_a_b" || b != "mallacc_a_b_2" || c != "mallacc_a_b_3" {
		t.Fatalf("collision suffixes wrong: %q %q %q", a, b, c)
	}
}

func TestHistogramBucketsMonotonic(t *testing.T) {
	h := stats.NewDurationHist()
	for i := uint64(1); i < 5000; i = i*3 + 1 {
		h.Add(i)
	}
	reg := NewRegistry()
	reg.Histogram("lat", h)
	s := reg.Snapshot()
	var m *Metric
	for i := range s.Metrics {
		if s.Metrics[i].Name == "lat" {
			m = &s.Metrics[i]
		}
	}
	if m == nil || len(m.Buckets) == 0 {
		t.Fatal("histogram snapshot lost its buckets")
	}
	prevLE := -1.0
	prevCount := uint64(0)
	for _, b := range m.Buckets[:len(m.Buckets)-1] {
		if b.LE <= prevLE {
			t.Fatalf("bucket le not increasing: %v then %v", prevLE, b.LE)
		}
		if b.Count < prevCount {
			t.Fatalf("cumulative count decreased: %d then %d", prevCount, b.Count)
		}
		prevLE, prevCount = b.LE, b.Count
	}
	last := m.Buckets[len(m.Buckets)-1]
	if !math.IsInf(last.LE, 1) || last.Count != m.Count {
		t.Fatalf("closing bucket %+v does not cover count %d", last, m.Count)
	}
}

func TestOpenMetricsCoversEveryMetric(t *testing.T) {
	s := goldenSnapshot()
	doc := string(OpenMetrics(s))
	used := map[string]bool{}
	for _, m := range s.Metrics {
		if fam := exposedName(m.Name, used); !strings.Contains(doc, "# TYPE "+fam+" ") {
			t.Errorf("family %s missing from exposition", fam)
		}
	}
}

func TestLintRejectsBrokenDocs(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"no-eof", "# TYPE mallacc_x counter\nmallacc_x_total 1\n"},
		{"blank-line", "# TYPE mallacc_x counter\n\nmallacc_x_total 1\n# EOF\n"},
		{"dup-type", "# TYPE mallacc_x counter\nmallacc_x_total 1\n# TYPE mallacc_x counter\nmallacc_x_total 1\n# EOF\n"},
		{"orphan-sample", "mallacc_x_total 1\n# EOF\n"},
		{"counter-bare-name", "# TYPE mallacc_x counter\nmallacc_x 1\n# EOF\n"},
		{"gauge-total-suffix", "# TYPE mallacc_x gauge\nmallacc_x_total 1\n# EOF\n"},
		{"negative-counter", "# TYPE mallacc_x counter\nmallacc_x_total -1\n# EOF\n"},
		{"bad-name", "# TYPE 9bad counter\n9bad_total 1\n# EOF\n"},
		{"hist-no-inf", "# TYPE mallacc_h histogram\nmallacc_h_bucket{le=\"1\"} 1\nmallacc_h_sum 1\nmallacc_h_count 1\n# EOF\n"},
		{"hist-le-regress", "# TYPE mallacc_h histogram\nmallacc_h_bucket{le=\"2\"} 1\nmallacc_h_bucket{le=\"1\"} 1\nmallacc_h_bucket{le=\"+Inf\"} 1\nmallacc_h_sum 1\nmallacc_h_count 1\n# EOF\n"},
		{"hist-count-drop", "# TYPE mallacc_h histogram\nmallacc_h_bucket{le=\"1\"} 2\nmallacc_h_bucket{le=\"+Inf\"} 1\nmallacc_h_sum 1\nmallacc_h_count 1\n# EOF\n"},
		{"hist-count-mismatch", "# TYPE mallacc_h histogram\nmallacc_h_bucket{le=\"+Inf\"} 2\nmallacc_h_sum 1\nmallacc_h_count 1\n# EOF\n"},
	}
	for _, c := range cases {
		if err := LintOpenMetrics([]byte(c.doc)); err == nil {
			t.Errorf("%s: lint accepted a broken document", c.name)
		}
	}
}

func TestLintAcceptsMinimalDoc(t *testing.T) {
	doc := "# TYPE mallacc_up gauge\nmallacc_up 1\n# EOF\n"
	if err := LintOpenMetrics([]byte(doc)); err != nil {
		t.Fatalf("minimal valid doc rejected: %v", err)
	}
}
