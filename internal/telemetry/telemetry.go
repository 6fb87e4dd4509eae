// Package telemetry is the unified observability layer of the simulator.
// Every simulated component — the out-of-order core, the cache hierarchy,
// the malloc cache, the allocator tiers, the sampler — registers named
// metrics into one Registry, and every consumer (the experiment harness,
// the CLIs, the library facade) reads them back through one Snapshot
// surface keyed by dotted metric names (e.g. "mc.pop.hits", "l1d.misses",
// "pageheap.spans.split", "step.pushpop.cycles").
//
// The existing per-package stats structs remain the storage — they are
// cheap plain-field counters on simulation hot paths — and the registry
// reads them through source closures at snapshot time. The registry is
// therefore the single query surface; the structs are its backing store.
// Registration is write-once per run: components register at construction
// and the registry is never mutated during simulation, so snapshots are
// safe to take from any goroutine once a run has finished.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"mallacc/internal/stats"
)

// Ratio returns hits / (hits + misses), the canonical hit-rate helper every
// layer previously reimplemented. Zero traffic yields 0.
func Ratio(hits, misses uint64) float64 {
	t := hits + misses
	if t == 0 {
		return 0
	}
	return float64(hits) / float64(t)
}

// Rate returns num / den, guarding the empty denominator. It covers the
// non-hit/miss ratios (IPC = uops/cycles, miss rate = misses/accesses).
func Rate(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Kind classifies a metric.
type Kind string

const (
	// KindCounter is a monotonically nondecreasing event count.
	KindCounter Kind = "counter"
	// KindGauge is an instantaneous value (rates, occupancies).
	KindGauge Kind = "gauge"
	// KindHistogram is a log-bucketed distribution of per-event values.
	KindHistogram Kind = "histogram"
)

// Metric is one named value of a Snapshot.
type Metric struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	// Value holds the counter or gauge reading (counters are exact until
	// 2^53, far beyond any simulated run).
	Value float64 `json:"value"`
	// Histogram summary fields (KindHistogram only).
	Count uint64  `json:"count,omitempty"`
	Sum   uint64  `json:"sum,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P99   float64 `json:"p99,omitempty"`

	// Exposition-only fields, excluded from the compact JSON form so the
	// pinned snapshot digests stay byte-identical: Help is the registered
	// description, Buckets the cumulative distribution (KindHistogram only,
	// always ending in the +Inf bucket).
	Help    string       `json:"-"`
	Buckets []HistBucket `json:"-"`
}

// HistBucket is one cumulative histogram bucket for text exposition: Count
// is the number of observations with value <= LE. LE is +Inf on the final
// bucket.
type HistBucket struct {
	LE    float64
	Count uint64
}

// cumulativeBuckets converts the non-cumulative stats buckets into the
// cumulative form exposition needs. Durations are integers, so the
// inclusive upper bound of a [Lo, Hi) range is Hi-1. The +Inf bucket always
// closes the list, carrying the total count.
func cumulativeBuckets(bs []stats.Bucket, n uint64) []HistBucket {
	out := make([]HistBucket, 0, len(bs)+1)
	var acc uint64
	for _, b := range bs {
		acc += b.Count
		out = append(out, HistBucket{LE: float64(b.Hi - 1), Count: acc})
	}
	return append(out, HistBucket{LE: math.Inf(1), Count: n})
}

// Snapshot is an immutable point-in-time reading of a Registry, sorted by
// metric name.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Get returns the metric with the given name.
func (s Snapshot) Get(name string) (Metric, bool) {
	i := sort.Search(len(s.Metrics), func(i int) bool { return s.Metrics[i].Name >= name })
	if i < len(s.Metrics) && s.Metrics[i].Name == name {
		return s.Metrics[i], true
	}
	return Metric{}, false
}

// Value returns the named counter/gauge value (0 when absent).
func (s Snapshot) Value(name string) float64 {
	m, _ := s.Get(name)
	return m.Value
}

// MarshalJSON renders the snapshot as one object keyed by metric name:
// counters and gauges as plain numbers, histograms as summary objects.
// This is the compact machine-readable form the exporters and
// results/metrics/baseline.json use.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	out := make(map[string]any, len(s.Metrics))
	for _, m := range s.Metrics {
		switch m.Kind {
		case KindHistogram:
			out[m.Name] = map[string]any{
				"count": m.Count, "sum": m.Sum,
				"mean": jsonRound(m.Mean), "p50": jsonRound(m.P50), "p99": jsonRound(m.P99),
			}
		case KindCounter:
			out[m.Name] = uint64(m.Value)
		default:
			out[m.Name] = jsonRound(m.Value)
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON parses the compact map form MarshalJSON emits, restoring a
// sorted Metrics slice, so snapshots embedded in cached reports survive a
// serialize/deserialize round trip byte-identically. Plain numbers cannot
// distinguish counters from gauges; a non-negative integer is classified as
// a counter, anything else as a gauge — both re-marshal to the same bytes.
func (s *Snapshot) UnmarshalJSON(b []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	ms := make([]Metric, 0, len(raw))
	for name, v := range raw {
		m := Metric{Name: name}
		if len(v) > 0 && v[0] == '{' {
			var h struct {
				Count uint64  `json:"count"`
				Sum   uint64  `json:"sum"`
				Mean  float64 `json:"mean"`
				P50   float64 `json:"p50"`
				P99   float64 `json:"p99"`
			}
			if err := json.Unmarshal(v, &h); err != nil {
				return err
			}
			m.Kind = KindHistogram
			m.Count, m.Sum, m.Mean, m.P50, m.P99 = h.Count, h.Sum, h.Mean, h.P50, h.P99
			m.Value = float64(h.Count)
		} else {
			var num json.Number
			if err := json.Unmarshal(v, &num); err != nil {
				return err
			}
			f, err := num.Float64()
			if err != nil {
				return err
			}
			m.Value = f
			if isCounterLiteral(num.String()) {
				m.Kind = KindCounter
			} else {
				m.Kind = KindGauge
			}
		}
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	s.Metrics = ms
	return nil
}

// isCounterLiteral reports whether a JSON number literal is a non-negative
// integer (the only form counter values marshal to).
func isCounterLiteral(lit string) bool {
	if lit == "" || lit[0] == '-' {
		return false
	}
	for i := 0; i < len(lit); i++ {
		switch lit[i] {
		case '.', 'e', 'E':
			return false
		}
	}
	return true
}

// jsonRound trims float noise to 6 decimal places so snapshots diff cleanly
// across toolchains.
func jsonRound(v float64) float64 {
	const scale = 1e6
	if v >= 0 {
		return float64(int64(v*scale+0.5)) / scale
	}
	return -float64(int64(-v*scale+0.5)) / scale
}

// Registry holds the registered metric sources of one simulated system.
// A Registry obtained from Sub is a prefixed view: it stores nothing itself
// and forwards every registration to the root under "<prefix>name".
type Registry struct {
	mu        sync.Mutex
	counters  map[string]func() uint64
	gauges    map[string]func() float64
	hists     map[string]*stats.DurationHist
	synchists map[string]*SyncHist
	helps     map[string]string

	parent *Registry // non-nil on prefixed views
	prefix string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  map[string]func() uint64{},
		gauges:    map[string]func() float64{},
		hists:     map[string]*stats.DurationHist{},
		synchists: map[string]*SyncHist{},
		helps:     map[string]string{},
	}
}

// Describe attaches a help string to a metric name. It may be called before
// or after the metric registers (metadata and sources often live in
// different components); snapshots join the two by name. Prefixed views
// apply their prefix, so component RegisterMetrics methods can describe
// their own metrics unchanged.
func (r *Registry) Describe(name, help string) {
	root, pre := r.rootAndPrefix()
	root.mu.Lock()
	defer root.mu.Unlock()
	if root.helps == nil {
		root.helps = map[string]string{}
	}
	root.helps[pre+name] = help
}

// Sub returns a prefixed view of r: every metric registered through the
// view lands in the root registry under "<prefix>name". Views nest (the
// prefixes concatenate) and share the root's mutex and duplicate check, so
// per-core registrations like reg.Sub("core3.") compose with component
// RegisterMetrics methods unchanged. Snapshot and Len on a view read the
// whole root registry.
func (r *Registry) Sub(prefix string) *Registry {
	root, pre := r.rootAndPrefix()
	return &Registry{parent: root, prefix: pre + prefix}
}

// rootAndPrefix resolves a possibly-prefixed view to its storage registry
// and accumulated name prefix.
func (r *Registry) rootAndPrefix() (*Registry, string) {
	if r.parent != nil {
		return r.parent, r.prefix
	}
	return r, ""
}

// Counter registers a counter source under name. Registering a duplicate
// name panics: dotted names are the registry's only keyspace, and silent
// shadowing would corrupt every downstream report.
func (r *Registry) Counter(name string, fn func() uint64) {
	root, pre := r.rootAndPrefix()
	root.mu.Lock()
	defer root.mu.Unlock()
	root.checkFresh(pre + name)
	root.counters[pre+name] = fn
}

// Gauge registers a gauge source under name.
func (r *Registry) Gauge(name string, fn func() float64) {
	root, pre := r.rootAndPrefix()
	root.mu.Lock()
	defer root.mu.Unlock()
	root.checkFresh(pre + name)
	root.gauges[pre+name] = fn
}

// Histogram registers a histogram under name. The registry reads it at
// snapshot time; the caller keeps feeding it.
func (r *Registry) Histogram(name string, h *stats.DurationHist) {
	root, pre := r.rootAndPrefix()
	root.mu.Lock()
	defer root.mu.Unlock()
	root.checkFresh(pre + name)
	root.hists[pre+name] = h
}

func (r *Registry) checkFresh(name string) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	if _, ok := r.hists[name]; ok {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	if _, ok := r.synchists[name]; ok {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	r, _ = r.rootAndPrefix()
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.counters) + len(r.gauges) + len(r.hists) + len(r.synchists)
}

// Snapshot reads every registered source and returns the sorted result.
func (r *Registry) Snapshot() Snapshot {
	r, _ = r.rootAndPrefix()
	r.mu.Lock()
	defer r.mu.Unlock()
	ms := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.synchists))
	for name, h := range r.synchists {
		ms = append(ms, h.metric(name))
	}
	for name, fn := range r.counters {
		ms = append(ms, Metric{Name: name, Kind: KindCounter, Value: float64(fn())})
	}
	for name, fn := range r.gauges {
		ms = append(ms, Metric{Name: name, Kind: KindGauge, Value: fn()})
	}
	for name, h := range r.hists {
		m := Metric{Name: name, Kind: KindHistogram, Count: h.N(), Sum: h.TotalCycles()}
		m.Value = float64(h.N())
		if h.N() > 0 {
			m.Mean = h.MeanCycles()
			m.P50 = h.MedianCycles()
			m.P99 = h.PercentileCycles(99)
		}
		m.Buckets = cumulativeBuckets(h.Buckets(), h.N())
		ms = append(ms, m)
	}
	for i := range ms {
		ms[i].Help = r.helps[ms[i].Name]
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	return Snapshot{Metrics: ms}
}
