package simsvc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"mallacc/internal/harness"
	"mallacc/internal/stats"
	"mallacc/internal/telemetry"
	"mallacc/internal/workload"
)

// Recorded traces are content-addressed artifacts: a TraceSpec (source
// workload, call budget, seed) canonicalizes and hashes exactly like a
// JobSpec, and the captured request stream is stored under that key in the
// same CRC-framed on-disk format as the result cache. A trace recorded once
// can then be replayed anywhere — locally, by a daemon, on any variant — by
// naming the workload "trace:<key>"; because the capture uses the same RNG
// seeding as harness.Run, replaying a trace through the same spec produces
// a byte-identical report to running its source workload directly.

// TraceWorkloadPrefix marks a workload name that names a recorded trace.
const TraceWorkloadPrefix = "trace:"

// TraceSpec fully describes one recorded allocation stream.
type TraceSpec struct {
	// Workload is the source stock workload name.
	Workload string `json:"workload"`
	// Calls is the request budget handed to the generator (default 60000).
	Calls int `json:"calls,omitempty"`
	// Seed drives the generator's randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`
}

// Canonicalize validates the spec and resolves defaults, mirroring
// JobSpec.Canonicalize so equivalent specs hash identically.
func (t TraceSpec) Canonicalize() (TraceSpec, error) {
	c := t
	if c.Workload == "" {
		return TraceSpec{}, fmt.Errorf("%w: trace spec needs a workload", ErrInvalidSpec)
	}
	if strings.HasPrefix(c.Workload, TraceWorkloadPrefix) {
		return TraceSpec{}, fmt.Errorf("%w: cannot record a trace of a trace", ErrInvalidSpec)
	}
	if !workload.Known(c.Workload) {
		return TraceSpec{}, fmt.Errorf("%w: unknown workload %q", ErrInvalidSpec, c.Workload)
	}
	if c.Calls == 0 {
		c.Calls = 60000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if err := harness.ValidateRunBounds(1, c.Seed, c.Calls); err != nil {
		return TraceSpec{}, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	return c, nil
}

// Key returns the trace's content address: the hex SHA-256 of
// "trace:" + the canonical JSON encoding. Call it on canonicalized specs.
func (t TraceSpec) Key() string {
	b, err := json.Marshal(t)
	if err != nil {
		panic(fmt.Sprintf("simsvc: marshal trace spec: %v", err))
	}
	sum := sha256.Sum256(append([]byte(TraceWorkloadPrefix), b...))
	return hex.EncodeToString(sum[:])
}

// TraceKeyName returns the workload name that replays the trace stored
// under key.
func TraceKeyName(key string) string { return TraceWorkloadPrefix + key }

// ParseTraceKey extracts and validates the key of a "trace:<key>" workload
// name.
func ParseTraceKey(name string) (string, bool) {
	key, ok := strings.CutPrefix(name, TraceWorkloadPrefix)
	if !ok || len(key) != sha256.Size*2 {
		return "", false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", false
		}
	}
	return key, true
}

// TraceStore holds recorded traces, content-addressed by TraceSpec key.
// With a directory it persists each trace to <dir>/<key>.trace, framed
// exactly like result-cache entries (checksummed header, temp+fsync+rename
// writes, quarantine on corruption); without one it is memory-only.
type TraceStore struct {
	dir string

	mu  sync.Mutex
	mem map[string]*workload.Trace

	records, hits, misses, quarantined atomic.Uint64
}

// NewTraceStore builds a store rooted at dir ("" = memory only).
func NewTraceStore(dir string) (*TraceStore, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("trace dir: %w", err)
		}
	}
	return &TraceStore{dir: dir, mem: map[string]*workload.Trace{}}, nil
}

// Record captures the request stream described by spec and stores it,
// returning the content key. Recording is idempotent: a trace already in
// the store is not re-captured. The capture seeds the generator's RNG
// exactly like harness.Run (seed+1), which is what makes a replayed trace's
// report byte-identical to its source workload's.
func (ts *TraceStore) Record(spec TraceSpec) (string, *workload.Trace, error) {
	c, err := spec.Canonicalize()
	if err != nil {
		return "", nil, err
	}
	key := c.Key()
	if tr, ok := ts.Get(key); ok {
		return key, tr, nil
	}
	w, _ := workload.ByName(c.Workload)
	tr := workload.RecordOnly(w, c.Calls, stats.NewRNG(c.Seed+1))
	// Replays must report under the source workload's name: the report
	// renders Result.Workload, and byte-identity with the original run is
	// the contract.
	tr.TName = c.Workload
	ts.records.Add(1)
	if err := ts.put(key, tr); err != nil {
		return "", nil, err
	}
	return key, tr, nil
}

// Get returns the trace stored under key. Memory misses fall through to
// the disk tier; a disk entry that fails validation is quarantined and
// reported as a miss.
func (ts *TraceStore) Get(key string) (*workload.Trace, bool) {
	ts.mu.Lock()
	if tr, ok := ts.mem[key]; ok {
		ts.mu.Unlock()
		ts.hits.Add(1)
		return tr, true
	}
	ts.mu.Unlock()

	if ts.dir != "" {
		path := filepath.Join(ts.dir, key+".trace")
		if b, err := os.ReadFile(path); err == nil {
			payload, derr := decodeEntry(b)
			if derr == nil {
				tr, terr := workload.ReadTrace(bytes.NewReader(payload))
				if terr == nil {
					ts.mu.Lock()
					ts.mem[key] = tr
					ts.mu.Unlock()
					ts.hits.Add(1)
					return tr, true
				}
			}
			ts.quarantined.Add(1)
			quarantineEntry(ts.dir, path)
		}
	}
	ts.misses.Add(1)
	return nil, false
}

// put stores a trace in memory and, when the disk tier is enabled, on disk
// through the result cache's crash-safe writeEntry.
func (ts *TraceStore) put(key string, tr *workload.Trace) error {
	ts.mu.Lock()
	ts.mem[key] = tr
	ts.mu.Unlock()
	if ts.dir == "" {
		return nil
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		return fmt.Errorf("serialize trace: %w", err)
	}
	if err := writeEntry(ts.dir, filepath.Join(ts.dir, key+".trace"), buf.Bytes()); err != nil {
		return fmt.Errorf("trace write: %w", err)
	}
	return nil
}

// Len returns the number of in-memory traces.
func (ts *TraceStore) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.mem)
}

// RegisterMetrics publishes the store's counters under simsvc.traces.*.
func (ts *TraceStore) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("simsvc.traces.recorded", ts.records.Load)
	reg.Counter("simsvc.traces.hits", ts.hits.Load)
	reg.Counter("simsvc.traces.misses", ts.misses.Load)
	reg.Counter("simsvc.traces.quarantined", ts.quarantined.Load)
	reg.Gauge("simsvc.traces.loaded", func() float64 { return float64(ts.Len()) })
}
