package harness

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"mallacc/internal/telemetry"
)

func TestTableRenderAligns(t *testing.T) {
	tb := &table{header: []string{"name", "value"}}
	tb.addRow("short", "1")
	tb.addRow("a-much-longer-name", "123456")
	lines := tb.render()
	if len(lines) != 4 { // header + rule + 2 rows
		t.Fatalf("got %d lines", len(lines))
	}
	// All value columns start at the same offset.
	off := strings.Index(lines[0], "value")
	if strings.Index(lines[2], "1") != off && !strings.HasPrefix(lines[2][off:], "1") {
		t.Errorf("misaligned column:\n%s", strings.Join(lines, "\n"))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("missing header rule: %q", lines[1])
	}
}

func TestBarScalesAndClamps(t *testing.T) {
	if b := bar(50, 100, 10); len(b) != 5 {
		t.Errorf("bar(50,100,10) = %q", b)
	}
	if b := bar(200, 100, 10); len(b) != 10 {
		t.Errorf("overflow bar = %q", b)
	}
	if b := bar(-5, 100, 10); len(b) != 0 {
		t.Errorf("negative bar = %q", b)
	}
	if b := bar(5, 0, 10); b != "" {
		t.Errorf("zero-max bar = %q", b)
	}
}

func TestReportString(t *testing.T) {
	r := &Report{ID: "x", Title: "Test", Notes: []string{"note"}, Lines: []string{"line1", "line2"}}
	s := r.String()
	for _, want := range []string{"== x: Test ==", "# note", "line1", "line2"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in %q", want, s)
		}
	}
}

func TestGeoImpHandlesNegatives(t *testing.T) {
	// A mix of improvements and slowdowns must not panic and must land
	// between the extremes.
	g := geoImp([]float64{50, -20, 10})
	if g < -20 || g > 50 {
		t.Errorf("geoImp = %v", g)
	}
	// Pure improvements reproduce the survival-ratio geometric mean.
	g2 := geoImp([]float64{50, 50})
	if g2 < 49.9 || g2 > 50.1 {
		t.Errorf("geoImp(50,50) = %v", g2)
	}
}

func TestShortName(t *testing.T) {
	if shortName("ubench.tp") != "tp" || shortName("xapian.pages") != "xapian.pages" {
		t.Error("shortName wrong")
	}
}

func TestReportStringGolden(t *testing.T) {
	tb := &table{header: []string{"workload", "mallacc", "limit"}}
	tb.addRow("400.perlbench", "18.4%", "34.6%")
	tb.addRow("Geomean", "15.0%", "28.1%")
	r := &Report{ID: "fig13", Title: "Allocator time improvement", Notes: []string{"paper: 18% of 28%"}}
	r.addTable("", tb)
	want := `== fig13: Allocator time improvement ==
# paper: 18% of 28%
workload       mallacc  limit
-----------------------------
400.perlbench  18.4%    34.6%
Geomean        15.0%    28.1%
`
	if got := r.String(); got != want {
		t.Errorf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestTableTypedInference(t *testing.T) {
	tb := &table{header: []string{"name", "imp", "speed", "count", "flag", "anchor"}}
	tb.addRow("w1", "12.3%", "1.25x", "42", "true", "-")
	tb.addRow("w2", "-4.0%", "0.90x", "7", "false", "18.0")
	ty := tb.typed("demo")
	wantKinds := []ColumnKind{ColString, ColPercent, ColRatio, ColNumber, ColString, ColNumber}
	for i, c := range ty.Columns {
		if c.Kind != wantKinds[i] {
			t.Errorf("col %d (%s) kind = %s, want %s", i, c.Name, c.Kind, wantKinds[i])
		}
	}
	if ty.Rows[0][1] != 12.3 || ty.Rows[1][1] != -4.0 {
		t.Errorf("percent cells = %v, %v", ty.Rows[0][1], ty.Rows[1][1])
	}
	if ty.Rows[0][2] != 1.25 {
		t.Errorf("ratio cell = %v", ty.Rows[0][2])
	}
	if ty.Rows[0][5] != nil || ty.Rows[1][5] != 18.0 {
		t.Errorf("null/anchor cells = %v, %v", ty.Rows[0][5], ty.Rows[1][5])
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	tb := &table{header: []string{"workload", "imp"}}
	tb.addRow("w", "10.0%")
	r := &Report{ID: "t", Title: "T", Notes: []string{"n"}}
	r.addTable("", tb)
	r.Series = append(r.Series, Series{Name: "s", Unit: "%", Points: []Point{{Label: "1-2", Value: 3.5}}})
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	if back.ID != r.ID || back.Title != r.Title || len(back.Tables) != 1 || len(back.Series) != 1 {
		t.Errorf("round-trip lost fields: %+v", back)
	}
	if back.Tables[0].Columns[1].Kind != ColPercent {
		t.Errorf("column kind lost: %+v", back.Tables[0].Columns)
	}
	if v, ok := back.Tables[0].Rows[0][1].(float64); !ok || v != 10.0 {
		t.Errorf("cell lost: %v", back.Tables[0].Rows[0][1])
	}
	if back.Series[0].Points[0].Value != 3.5 {
		t.Errorf("series lost: %+v", back.Series[0])
	}
}

func TestReportCSVRoundTrip(t *testing.T) {
	tb := &table{header: []string{"workload", "imp", "note"}}
	tb.addRow("w1", "10.5%", "hello, world")
	tb.addRow("w2", "-", "x")
	r := &Report{ID: "t", Title: "T"}
	r.addTable("demo", tb)
	b, err := r.CSV()
	if err != nil {
		t.Fatal(err)
	}
	rd := csv.NewReader(bytes.NewReader(b))
	rd.FieldsPerRecord = -1
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("CSV parse: %v", err)
	}
	// report line, table title, header, two rows.
	if len(recs) != 5 {
		t.Fatalf("got %d records: %v", len(recs), recs)
	}
	if recs[0][0] != "report" || recs[0][1] != "t" {
		t.Errorf("report record = %v", recs[0])
	}
	if recs[3][0] != "w1" || recs[3][1] != "10.5" || recs[3][2] != "hello, world" {
		t.Errorf("data record = %v", recs[3])
	}
	if recs[4][1] != "" {
		t.Errorf("null cell should be empty, got %q", recs[4][1])
	}
}

func TestRenderFormats(t *testing.T) {
	r := &Report{ID: "t", Title: "T", Lines: []string{"l"}}
	for _, f := range []string{"", "text", "json", "csv"} {
		if _, err := r.Render(f); err != nil {
			t.Errorf("Render(%q): %v", f, err)
		}
	}
	if _, err := r.Render("xml"); err == nil {
		t.Error("Render(xml) should fail")
	}
}

func TestRenderCarriesRunMetrics(t *testing.T) {
	r := &Report{ID: "t", Title: "T", Lines: []string{"l"}}
	r.Runs = append(r.Runs, RunMetrics{Name: "w/baseline", Metrics: telemetry.Snapshot{Metrics: []telemetry.Metric{
		{Name: "heap.fast_hits", Kind: telemetry.KindCounter, Value: 7},
		{Name: "cpu.ipc", Kind: telemetry.KindGauge, Value: 1.5},
		{Name: "step.other.percall", Kind: telemetry.KindHistogram, Count: 3, Sum: 30, Mean: 10, P50: 9, P99: 12},
	}}})
	names := []string{"w/baseline", "heap.fast_hits", "cpu.ipc", "step.other.percall"}
	for _, f := range []string{"text", "csv"} {
		b, err := r.Render(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if !strings.Contains(string(b), n) {
				t.Errorf("Render(%q) lacks %q:\n%s", f, n, b)
			}
		}
	}
	for _, n := range names {
		if strings.Contains(r.String(), n) {
			t.Errorf("String() carries run metric %q:\n%s", n, r.String())
		}
	}
}
