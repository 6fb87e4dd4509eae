package harness

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"mallacc/internal/telemetry"
)

// JSON renders the report as indented JSON: identity, notes, text lines,
// typed tables/series and any attached per-run telemetry.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// CSV renders the report's typed data as CSV: each table as a header record
// plus data records (numeric cells as plain numbers, nulls empty), tables
// separated by a blank line, each series as label,value records headed by
// the series name, and each attached run's telemetry as name,value records
// headed by "metrics,<run>" (a histogram as its .count, .sum, .mean, .p50
// and .p99 values). Reports with no tables, series or runs yield only the
// id/title record.
func (r *Report) CSV() ([]byte, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write([]string{"report", r.ID, r.Title}); err != nil {
		return nil, err
	}
	for _, t := range r.Tables {
		w.Flush()
		buf.WriteByte('\n')
		if t.Title != "" {
			if err := w.Write([]string{"table", t.Title}); err != nil {
				return nil, err
			}
		}
		header := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			header[i] = c.Name
		}
		if err := w.Write(header); err != nil {
			return nil, err
		}
		for _, row := range t.Rows {
			rec := make([]string, len(row))
			for i, cell := range row {
				rec[i] = csvCell(cell)
			}
			if err := w.Write(rec); err != nil {
				return nil, err
			}
		}
	}
	for _, s := range r.Series {
		w.Flush()
		buf.WriteByte('\n')
		name := s.Name
		if s.Unit != "" {
			name += " (" + s.Unit + ")"
		}
		if err := w.Write([]string{"label", name}); err != nil {
			return nil, err
		}
		for _, p := range s.Points {
			if err := w.Write([]string{p.Label, csvFloat(p.Value)}); err != nil {
				return nil, err
			}
		}
	}
	for _, run := range r.Runs {
		w.Flush()
		buf.WriteByte('\n')
		if err := w.Write([]string{"metrics", run.Name}); err != nil {
			return nil, err
		}
		for _, m := range run.Metrics.Metrics {
			recs := [][]string{{m.Name, csvFloat(m.Value)}}
			if m.Kind == telemetry.KindHistogram {
				recs = [][]string{
					{m.Name + ".count", strconv.FormatUint(m.Count, 10)},
					{m.Name + ".sum", strconv.FormatUint(m.Sum, 10)},
					{m.Name + ".mean", csvFloat(m.Mean)},
					{m.Name + ".p50", csvFloat(m.P50)},
					{m.Name + ".p99", csvFloat(m.P99)},
				}
			}
			if err := w.WriteAll(recs); err != nil {
				return nil, err
			}
		}
	}
	w.Flush()
	return buf.Bytes(), w.Error()
}

func csvCell(cell any) string {
	switch v := cell.(type) {
	case nil:
		return ""
	case float64:
		return csvFloat(v)
	case string:
		return v
	default:
		return fmt.Sprint(v)
	}
}

func csvFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// text renders the report as String does, followed by each attached run's
// telemetry as aligned name/value lines under a "-- metrics: <run> --"
// heading.
func (r *Report) text() string {
	var sb strings.Builder
	sb.WriteString(r.String())
	for _, run := range r.Runs {
		fmt.Fprintf(&sb, "\n-- metrics: %s --\n", run.Name)
		for _, m := range run.Metrics.Metrics {
			if m.Kind == telemetry.KindHistogram {
				fmt.Fprintf(&sb, "%-32s count=%d sum=%d mean=%.1f p50=%.1f p99=%.1f\n",
					m.Name, m.Count, m.Sum, m.Mean, m.P50, m.P99)
			} else {
				fmt.Fprintf(&sb, "%-32s %g\n", m.Name, m.Value)
			}
		}
	}
	return sb.String()
}

// Render returns the report in the requested format: "text" (the String
// rendering plus any attached run telemetry), "json", or "csv".
func (r *Report) Render(format string) ([]byte, error) {
	switch format {
	case "", "text":
		return []byte(r.text()), nil
	case "json":
		b, err := r.JSON()
		if err != nil {
			return nil, err
		}
		return append(b, '\n'), nil
	case "csv":
		return r.CSV()
	default:
		return nil, fmt.Errorf("harness: unknown format %q (want text, json or csv)", format)
	}
}
