package harness

import (
	"fmt"
	"strconv"
	"strings"

	"mallacc/internal/telemetry"
)

// Report is the renderable outcome of one experiment: a title, explanatory
// header, rows of pre-formatted text, and — for machine consumers — the
// same data as typed tables and series plus optional per-run telemetry
// snapshots. The text lines remain the canonical human rendering; the typed
// fields feed the JSON/CSV exporters (export.go).
type Report struct {
	ID     string       `json:"id"` // e.g. "fig13", "table2"
	Title  string       `json:"title"`
	Notes  []string     `json:"notes,omitempty"`
	Lines  []string     `json:"lines,omitempty"`
	Tables []Table      `json:"tables,omitempty"`
	Series []Series     `json:"series,omitempty"`
	Runs   []RunMetrics `json:"runs,omitempty"`
}

// ColumnKind classifies a typed table column.
type ColumnKind string

const (
	// ColString holds free text (workload names, flags).
	ColString ColumnKind = "string"
	// ColNumber holds plain numbers.
	ColNumber ColumnKind = "number"
	// ColPercent holds percentages; cell values are the percent magnitude
	// (12.3 for "12.3%").
	ColPercent ColumnKind = "percent"
	// ColRatio holds multiplicative factors (1.23 for "1.23x").
	ColRatio ColumnKind = "ratio"
)

// Column is one typed table column.
type Column struct {
	Name string     `json:"name"`
	Kind ColumnKind `json:"kind"`
}

// Table is the typed form of one experiment table. Numeric cells are
// float64, string cells string, and missing cells ("-" or empty in the text
// rendering of a numeric column) are nil.
type Table struct {
	Title   string   `json:"title,omitempty"`
	Columns []Column `json:"columns"`
	Rows    [][]any  `json:"rows"`
}

// Point is one labeled sample of a Series.
type Point struct {
	Label string  `json:"label"`
	Value float64 `json:"value"`
}

// Series is a labeled sequence of points (histograms, sweeps).
type Series struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit,omitempty"`
	Points []Point `json:"points"`
}

// RunMetrics pairs a run label ("xapian.pages/mallacc") with the run's full
// telemetry snapshot. Populated when ExpOptions.Metrics is set.
type RunMetrics struct {
	Name    string             `json:"name"`
	Metrics telemetry.Snapshot `json:"metrics"`
}

// addTable renders tb into the report's text lines and records its typed
// form.
func (r *Report) addTable(title string, tb *table) {
	r.Lines = append(r.Lines, tb.render()...)
	r.Tables = append(r.Tables, tb.typed(title))
}

// addRun attaches one run's telemetry snapshot when metrics collection is
// enabled.
func (r *Report) addRun(enabled bool, name string, res *Result) {
	if enabled {
		r.Runs = append(r.Runs, RunMetrics{Name: name, Metrics: res.Telemetry})
	}
}

// String renders the report as text, without the attached run telemetry
// (Render("text") appends it).
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "# %s\n", n)
	}
	for _, l := range r.Lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// table aligns rows of columns into text lines.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) addRow(cols ...string) { t.rows = append(t.rows, cols) }

func (t *table) render() []string {
	all := make([][]string, 0, len(t.rows)+1)
	if len(t.header) > 0 {
		all = append(all, t.header)
	}
	all = append(all, t.rows...)
	widths := map[int]int{}
	for _, row := range all {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := make([]string, 0, len(all))
	for ri, row := range all {
		var sb strings.Builder
		for i, c := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		out = append(out, sb.String())
		if ri == 0 && len(t.header) > 0 {
			out = append(out, strings.Repeat("-", len(out[0])))
		}
	}
	return out
}

// cellKind classifies one rendered cell; numeric kinds also return the
// parsed magnitude.
func cellKind(s string) (ColumnKind, float64, bool) {
	switch {
	case s == "" || s == "-":
		return "", 0, false // null
	case strings.HasSuffix(s, "%"):
		if v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64); err == nil {
			return ColPercent, v, true
		}
	case strings.HasSuffix(s, "x"):
		if v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64); err == nil {
			return ColRatio, v, true
		}
	}
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return ColNumber, v, true
	}
	return ColString, 0, true
}

// typed converts the table into its typed form, inferring each column's
// kind from the rendered cells: a column whose non-null cells all parse as
// the same numeric kind becomes that kind, anything else stays string.
func (t *table) typed(title string) Table {
	ncols := len(t.header)
	for _, row := range t.rows {
		if len(row) > ncols {
			ncols = len(row)
		}
	}
	kinds := make([]ColumnKind, ncols)
	for col := 0; col < ncols; col++ {
		for _, row := range t.rows {
			if col >= len(row) {
				continue
			}
			k, _, ok := cellKind(row[col])
			if !ok {
				continue // null cell constrains nothing
			}
			if kinds[col] == "" {
				kinds[col] = k
			} else if kinds[col] != k {
				kinds[col] = ColString
			}
		}
		if kinds[col] == "" {
			kinds[col] = ColString
		}
	}
	out := Table{Title: title, Columns: make([]Column, ncols), Rows: make([][]any, len(t.rows))}
	for col := range out.Columns {
		name := ""
		if col < len(t.header) {
			name = t.header[col]
		}
		out.Columns[col] = Column{Name: name, Kind: kinds[col]}
	}
	for ri, row := range t.rows {
		cells := make([]any, ncols)
		for col := 0; col < ncols; col++ {
			if col >= len(row) {
				continue
			}
			k, v, ok := cellKind(row[col])
			switch {
			case !ok:
				// null
			case kinds[col] == ColString:
				cells[col] = row[col]
			case k == kinds[col]:
				cells[col] = v
			default:
				cells[col] = row[col]
			}
		}
		out.Rows[ri] = cells
	}
	return out
}

// bar renders a horizontal ASCII bar scaled to maxVal over width chars.
func bar(val, maxVal float64, width int) string {
	if maxVal <= 0 {
		return ""
	}
	n := int(val/maxVal*float64(width) + 0.5)
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", x) }
