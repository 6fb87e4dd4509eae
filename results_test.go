package mallacc_test

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mallacc"
)

// pinnedReports decodes the experiments of a pinned digest under
// results/metrics/, keyed by experiment ID.
func pinnedReports(t *testing.T, name string) map[string]*mallacc.Report {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("results", "metrics", name))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiments []*mallacc.Report `json:"experiments"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	out := map[string]*mallacc.Report{}
	for _, r := range doc.Experiments {
		out[r.ID] = r
	}
	return out
}

// TestResultsTextMatchesPinned keeps the text views of fig13 and fig14,
// the two quoted by EXPERIMENTS.md that have a pinned source, equal to
// the report rendered from results/metrics/baseline.json.
func TestResultsTextMatchesPinned(t *testing.T) {
	reps := pinnedReports(t, "baseline.json")
	for _, id := range []string{"fig13", "fig14"} {
		rep, ok := reps[id]
		if !ok {
			t.Fatalf("baseline.json has no %s report", id)
		}
		got, err := os.ReadFile(filepath.Join("results", id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if want := rep.String(); string(got) != want {
			t.Errorf("results/%s.txt drifted from the pinned report; regenerate it from results/metrics/baseline.json:\n--- file\n%s--- pinned\n%s", id, got, want)
		}
	}
}

// TestResultsTextMatchesRendered keeps the text views of the crossalloc
// and buddy extensions, which no pinned digest covers, equal to the
// reports the code renders at seed 1 and the default call budget.
func TestResultsTextMatchesRendered(t *testing.T) {
	if testing.Short() {
		t.Skip("renders two experiments at the default call budget")
	}
	for _, id := range []string{"crossalloc", "buddy"} {
		rep, err := mallacc.RunExperiment(id, mallacc.ExpOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join("results", id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if want := rep.String(); string(got) != want {
			t.Errorf("results/%s.txt drifted from the code; regenerate it with mallacc-bench -run %s -seed 1:\n--- file\n%s--- rendered\n%s", id, id, got, want)
		}
	}
}

// gains reads a figure's typed table into workload -> column values, and
// the Geomean row separately.
func gains(t *testing.T, rep *mallacc.Report) (rows map[string][]float64, geomean []float64) {
	t.Helper()
	if len(rep.Tables) != 1 {
		t.Fatalf("%s: %d tables, want 1", rep.ID, len(rep.Tables))
	}
	rows = map[string][]float64{}
	for _, row := range rep.Tables[0].Rows {
		name, _ := row[0].(string)
		var vals []float64
		for _, cell := range row[1:] {
			if v, ok := cell.(float64); ok {
				vals = append(vals, v)
			}
		}
		if name == "Geomean" {
			geomean = vals
		} else {
			rows[name] = vals
		}
	}
	if len(rows) == 0 || geomean == nil {
		t.Fatalf("%s: table has %d workload rows and geomean %v", rep.ID, len(rows), geomean)
	}
	return rows, geomean
}

// TestPaperFidelityFig13Fig14 asserts the conclusions the reproduction
// draws from Figures 13 and 14 (PAPER.md, EXPERIMENTS.md) on the typed
// tables of the pinned digest, so a regeneration that flips one fails.
func TestPaperFidelityFig13Fig14(t *testing.T) {
	reps := pinnedReports(t, "baseline.json")
	fig13, fig14 := reps["fig13"], reps["fig14"]
	if fig13 == nil || fig14 == nil {
		t.Fatal("digest lacks fig13 or fig14")
	}
	alloc, geo := gains(t, fig13)
	malloc, _ := gains(t, fig14)

	// The accelerator achieves about 0.6 of the limit study's gain (the
	// paper's 18 % of 28 % is 0.64).
	if len(geo) != 2 || geo[1] <= 0 {
		t.Fatalf("fig13 geomean row %v", geo)
	}
	if r := geo[0] / geo[1]; r < 0.5 || r > 0.75 {
		t.Errorf("fig13 geomean mallacc/limit = %.1f/%.1f = %.2f, want in [0.5, 0.75]", geo[0], geo[1], r)
	}

	lowest := func(col map[string][]float64, i int) string {
		name, best := "", math.Inf(1)
		for w, v := range col {
			if v[i] < best {
				name, best = w, v[i]
			}
		}
		return name
	}
	for w, v := range alloc {
		if len(v) != 2 {
			t.Fatalf("fig13 %s: %d values, want mallacc and limit", w, len(v))
		}
		if v[0] <= 0 || v[0] > v[1] {
			t.Errorf("fig13 %s: mallacc %.1f%% not in (0, limit %.1f%%]", w, v[0], v[1])
		}
		m, ok := malloc[w]
		if !ok || len(m) != 1 {
			t.Fatalf("fig14 lacks %s", w)
		}
		if m[0] < v[0] {
			t.Errorf("%s: malloc-only gain %.1f%% below the malloc+free gain %.1f%%", w, m[0], v[0])
		}
	}
	for _, c := range []struct {
		fig  string
		col  map[string][]float64
		i    int
		name string
	}{
		{"fig13", alloc, 0, "mallacc"},
		{"fig13", alloc, 1, "limit"},
		{"fig14", malloc, 0, "mallacc"},
	} {
		if got := lowest(c.col, c.i); got != "masstree.same" {
			t.Errorf("%s %s column: lowest is %s, want masstree.same", c.fig, c.name, got)
		}
	}
}
