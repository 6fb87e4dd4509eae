package telemetry

import (
	"math"
	"strconv"
	"strings"
)

// OpenMetrics text exposition of a Snapshot, for Prometheus-compatible
// scrapers. The mapping rules (documented in DESIGN.md §14):
//
//   - Every dotted metric name becomes "mallacc_" + the name with each
//     character outside [a-zA-Z0-9_] replaced by '_' ("mc.pop.hits" →
//     mallacc_mc_pop_hits). The fixed prefix both namespaces the fleet and
//     guarantees the result never starts with a digit.
//   - Two dotted names that mangle to the same family (e.g. "a.b" and
//     "a-b") are disambiguated deterministically: the later name in
//     snapshot (sorted) order gets a "_2", "_3", ... suffix.
//   - Counters expose one sample, "<family>_total". Gauges expose
//     "<family>". Histograms expose cumulative "<family>_bucket{le="..."}"
//     series plus "<family>_sum" and "<family>_count".
//   - "# TYPE" always precedes a family's samples; "# HELP" is emitted when
//     the registry has a description (Registry.Describe). The output ends
//     with "# EOF".

// OpenMetricsContentType is the content type of the text exposition format.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// OpenMetrics renders the snapshot in OpenMetrics text exposition format.
// The output is deterministic: families appear in snapshot (metric-name)
// order.
func OpenMetrics(s Snapshot) []byte {
	var b strings.Builder
	used := map[string]bool{}
	for _, m := range s.Metrics {
		fam := exposedName(m.Name, used)
		if m.Help != "" {
			b.WriteString("# HELP ")
			b.WriteString(fam)
			b.WriteByte(' ')
			b.WriteString(escapeHelp(m.Help))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(fam)
		switch m.Kind {
		case KindCounter:
			b.WriteString(" counter\n")
			b.WriteString(fam)
			b.WriteString("_total ")
			b.WriteString(strconv.FormatUint(uint64(m.Value), 10))
			b.WriteByte('\n')
		case KindHistogram:
			b.WriteString(" histogram\n")
			writeHistogram(&b, fam, m)
		default:
			b.WriteString(" gauge\n")
			b.WriteString(fam)
			b.WriteByte(' ')
			b.WriteString(formatValue(m.Value))
			b.WriteByte('\n')
		}
	}
	b.WriteString("# EOF\n")
	return []byte(b.String())
}

func writeHistogram(b *strings.Builder, fam string, m Metric) {
	buckets := m.Buckets
	if len(buckets) == 0 {
		// A histogram registered without bucket data (e.g. a snapshot that
		// crossed a JSON round trip) still exposes a valid single-bucket
		// series carrying its count.
		buckets = []HistBucket{{LE: math.Inf(1), Count: m.Count}}
	}
	for _, hb := range buckets {
		b.WriteString(fam)
		b.WriteString(`_bucket{le="`)
		b.WriteString(formatLE(hb.LE))
		b.WriteString(`"} `)
		b.WriteString(strconv.FormatUint(hb.Count, 10))
		b.WriteByte('\n')
	}
	b.WriteString(fam)
	b.WriteString("_sum ")
	b.WriteString(strconv.FormatUint(m.Sum, 10))
	b.WriteByte('\n')
	b.WriteString(fam)
	b.WriteString("_count ")
	b.WriteString(strconv.FormatUint(m.Count, 10))
	b.WriteByte('\n')
}

// exposedName mangles a dotted metric name into a unique exposition family
// name, recording it in used.
func exposedName(name string, used map[string]bool) string {
	base := "mallacc_" + mangle(name)
	fam := base
	for n := 2; used[fam]; n++ {
		fam = base + "_" + strconv.Itoa(n)
	}
	used[fam] = true
	return fam
}

// mangle replaces every character outside the exposition-name alphabet
// with '_'.
func mangle(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatLE renders a bucket upper bound: +Inf for the closing bucket,
// shortest-round-trip decimal otherwise.
func formatLE(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatValue renders a sample value. NaN and infinities are legal in the
// format; everything the simulator produces is finite.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes the characters the format requires escaping in HELP
// text: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
