// Package simsvc is the simulation service: a job queue, a bounded worker
// pool, and a content-addressed result cache in front of the deterministic
// simulator. Every job is a fully-specified run — experiment name or
// workload/variant, call budget, seed, core count, malloc-cache size — so
// its result is a pure function of its spec. The cache key is the SHA-256
// of the canonicalized spec, which makes identical submissions (from the
// HTTP API, the batch CLIs, or sweeps with overlapping grids) collapse into
// one simulation and one stored report.
package simsvc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"mallacc/internal/catalog"
	"mallacc/internal/harness"
	"mallacc/internal/workload"
)

// Job kinds. An experiment job reproduces one paper figure/table; run and
// cluster jobs simulate one workload on one or many cores.
const (
	KindExperiment = "experiment"
	KindRun        = "run"
	KindCluster    = "cluster"
)

// ErrInvalidSpec wraps every spec validation failure; the HTTP layer maps
// it to 400.
var ErrInvalidSpec = errors.New("invalid job spec")

// JobSpec fully describes one deterministic simulation job. The zero value
// of every optional field means "use the default"; Canonicalize resolves
// all defaults so that equivalent specs serialize — and therefore hash —
// identically.
type JobSpec struct {
	// Kind is "experiment", "run" or "cluster". Empty infers: experiment
	// when Experiment is set, cluster when Cores > 1, run otherwise.
	Kind string `json:"kind,omitempty"`

	// Experiment names a harness experiment (fig13, table2, ...);
	// experiment kind only.
	Experiment string `json:"experiment,omitempty"`
	// Seeds is the significance-study repetition count; experiment kind
	// only (default 6).
	Seeds int `json:"seeds,omitempty"`

	// Workload names a stock workload (run/cluster kinds, required).
	Workload string `json:"workload,omitempty"`
	// Variant is baseline, mallacc, limit or offload (run/cluster kinds,
	// default baseline).
	Variant string `json:"variant,omitempty"`
	// Backend selects the allocator substrate: tcmalloc (default) or
	// lockfree. Canonicalization drops the explicit tcmalloc spelling so
	// the default substrate keeps its historical content address.
	Backend string `json:"backend,omitempty"`
	// MCEntries sizes the malloc cache (run/cluster kinds, default 32).
	MCEntries int `json:"mc_entries,omitempty"`

	// Cores is the simulated core count. Experiments use it to cap the
	// scaling sweep (default 16); run jobs must keep it at 1; cluster jobs
	// split Calls evenly across it (default 2).
	Cores int `json:"cores,omitempty"`
	// Calls is the total allocator-call budget (default 60000).
	Calls int `json:"calls,omitempty"`
	// Seed drives all randomness (default 1; 0 means unset).
	Seed uint64 `json:"seed,omitempty"`
	// Metrics attaches full telemetry snapshots to the report.
	Metrics bool `json:"metrics,omitempty"`
}

// maxSpecBytes bounds a submitted spec document; anything larger is not a
// job description.
const maxSpecBytes = 1 << 16

// DecodeSpec parses a JSON job spec strictly: unknown fields, duplicate
// keys, trailing garbage, and wrong shapes are errors (never panics), so a
// malformed submission cannot silently canonicalize into a different job
// than the client meant.
func DecodeSpec(data []byte) (JobSpec, error) {
	if len(data) > maxSpecBytes {
		return JobSpec{}, fmt.Errorf("%w: spec exceeds %d bytes", ErrInvalidSpec, maxSpecBytes)
	}
	if err := checkObjectDoc(data); err != nil {
		return JobSpec{}, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s JobSpec
	if err := dec.Decode(&s); err != nil {
		return JobSpec{}, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	if dec.More() {
		return JobSpec{}, fmt.Errorf("%w: trailing data after spec object", ErrInvalidSpec)
	}
	return s, nil
}

// maxSpecDepth bounds nesting during the duplicate-key walk. A spec is a
// flat object; the cap only exists so hostile input cannot recurse the
// walker off the stack.
const maxSpecDepth = 16

// checkObjectDoc verifies the document is a single JSON object with no
// duplicate keys at any level. encoding/json silently keeps the last
// duplicate, which would let two visually different specs alias one job —
// exactly what a content-addressed store must refuse.
func checkObjectDoc(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	t, err := dec.Token()
	if err != nil {
		return fmt.Errorf("invalid JSON: %v", err)
	}
	if d, ok := t.(json.Delim); !ok || d != '{' {
		return fmt.Errorf("spec must be a JSON object, got %v", t)
	}
	return walkObject(dec, 1)
}

func walkValue(dec *json.Decoder, depth int) error {
	if depth > maxSpecDepth {
		return fmt.Errorf("spec nested deeper than %d levels", maxSpecDepth)
	}
	t, err := dec.Token()
	if err != nil {
		return fmt.Errorf("invalid JSON: %v", err)
	}
	if d, ok := t.(json.Delim); ok {
		switch d {
		case '{':
			return walkObject(dec, depth+1)
		case '[':
			for dec.More() {
				if err := walkValue(dec, depth+1); err != nil {
					return err
				}
			}
			_, err := dec.Token() // ']'
			return err
		}
	}
	return nil
}

func walkObject(dec *json.Decoder, depth int) error {
	seen := map[string]bool{}
	for dec.More() {
		kt, err := dec.Token()
		if err != nil {
			return fmt.Errorf("invalid JSON: %v", err)
		}
		key, ok := kt.(string)
		if !ok {
			return fmt.Errorf("invalid object key %v", kt)
		}
		if seen[key] {
			return fmt.Errorf("duplicate key %q", key)
		}
		seen[key] = true
		if err := walkValue(dec, depth); err != nil {
			return err
		}
	}
	_, err := dec.Token() // '}'
	return err
}

// Canonicalize validates the spec and resolves every default, returning
// the canonical form whose JSON encoding is the job's content address.
// Specs that only differ in unset-vs-explicit defaults canonicalize to the
// same value; invalid specs return an error wrapping ErrInvalidSpec.
func (s JobSpec) Canonicalize() (JobSpec, error) {
	c := s
	if c.Kind == "" {
		switch {
		case c.Experiment != "":
			c.Kind = KindExperiment
		case c.Cores > 1:
			c.Kind = KindCluster
		default:
			c.Kind = KindRun
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Calls == 0 {
		c.Calls = 60000
	}

	fail := func(format string, args ...any) (JobSpec, error) {
		return JobSpec{}, fmt.Errorf("%w: %s", ErrInvalidSpec, fmt.Sprintf(format, args...))
	}

	switch c.Kind {
	case KindExperiment:
		if c.Experiment == "" {
			return fail("experiment jobs need an experiment id")
		}
		if _, ok := harness.ByID(c.Experiment); !ok {
			return fail("unknown experiment %q", c.Experiment)
		}
		if c.Workload != "" || c.Variant != "" || c.Backend != "" || c.MCEntries != 0 {
			return fail("workload/variant/backend/mc_entries are not valid for experiment jobs")
		}
		if c.Seeds == 0 {
			c.Seeds = 6
		}
		if err := harness.ValidateSeeds(c.Seeds); err != nil {
			return fail("%v", err)
		}
		if c.Cores == 0 {
			c.Cores = 16
		}
	case KindRun, KindCluster:
		if c.Experiment != "" {
			return fail("experiment is only valid for experiment jobs")
		}
		if c.Seeds != 0 {
			return fail("seeds is only valid for experiment jobs")
		}
		if c.Workload == "" {
			return fail("%s jobs need a workload", c.Kind)
		}
		if strings.HasPrefix(c.Workload, TraceWorkloadPrefix) {
			// "trace:<key>" replays a recorded trace; validation is
			// syntactic here — the service resolves the key against its
			// trace store when the job is submitted.
			if _, ok := ParseTraceKey(c.Workload); !ok {
				return fail("malformed trace workload %q (want trace:<64-hex-key>)", c.Workload)
			}
		} else if !workload.Known(c.Workload) {
			return fail("unknown workload %q", c.Workload)
		}
		if c.Variant == "" {
			c.Variant = "baseline"
		}
		backend := c.Backend
		if backend == "" {
			backend = catalog.BackendTCMalloc
		}
		if err := catalog.CheckCombo(backend, c.Variant); err != nil {
			return fail("%v", err)
		}
		c.Backend = catalog.NormalizeBackend(backend)
		if c.MCEntries == 0 {
			c.MCEntries = 32
		}
		if c.MCEntries < 1 || c.MCEntries > 1024 {
			return fail("mc_entries %d out of range [1, 1024]", c.MCEntries)
		}
		if c.Kind == KindRun {
			if c.Cores == 0 {
				c.Cores = 1
			}
			if c.Cores != 1 {
				return fail("run jobs are single-core; use kind %q for %d cores", KindCluster, c.Cores)
			}
		} else if c.Cores == 0 {
			c.Cores = 2
		}
	default:
		return fail("unknown kind %q", c.Kind)
	}

	if err := harness.ValidateRunBounds(c.Cores, c.Seed, c.Calls); err != nil {
		return fail("%v", err)
	}
	return c, nil
}

// Key returns the job's content address: the hex SHA-256 of the canonical
// JSON encoding. Call it on canonicalized specs — the service hashes only
// after Canonicalize, so equivalent submissions collide on one cache entry.
func (s JobSpec) Key() string {
	b, err := json.Marshal(s)
	if err != nil {
		// JobSpec is plain data; Marshal cannot fail.
		panic(fmt.Sprintf("simsvc: marshal spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
