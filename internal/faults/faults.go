// Package faults is a deterministic, seeded fault-injection registry.
// Production code threads named injection points through its failure-prone
// paths (disk IO, job execution, HTTP hops) with a single call:
//
//	if err := faults.Inject(faults.PointCacheRead); err != nil { ... }
//
// With no registry activated — the production default — Inject is one
// atomic pointer load returning nil, so instrumented paths cost nothing.
// When a registry is activated (via the -faults flag, the MALLACC_FAULTS
// environment variable, or tests), each point consults its configured
// rules in order: a rule fires with a seeded probability, optionally only
// after skipping its first checks, optionally at most count times, and
// either injects latency (sleeps, returns nil) or returns an
// *InjectedError classified transient or permanent. Seeded RNGs make a
// fault schedule reproducible run-to-run, which is what lets the chaos
// harness assert exact invariants instead of hoping.
package faults

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mallacc/internal/telemetry"
)

// Injection points instrumented by the service stack. The registry
// accepts arbitrary names, but these are the catalog the daemon ships.
const (
	// PointCacheRead gates disk-cache entry reads; an injected error makes
	// the read look like an IO failure (the cache treats it as a miss).
	PointCacheRead = "simsvc.cache.read"
	// PointCacheWrite gates disk-cache entry writes; an injected error
	// skips persistence (the write-through is best-effort).
	PointCacheWrite = "simsvc.cache.write"
	// PointExec gates job execution in the service runner, before any
	// simulation work; transient injections exercise the retry policy.
	PointExec = "simsvc.exec"
	// PointHTTP gates every inbound API request; error mode answers 503.
	PointHTTP = "simsvc.http"
	// PointRemoteHTTP gates every attempt of the job-API client
	// (simsvc.Client) before it sends a request; injections look like
	// transport failures.
	PointRemoteHTTP = "remote.http"
	// PointFleetProxy gates the coordinator's outbound hops to serve
	// nodes; an injected error looks like a node transport failure and
	// exercises failover and suspicion of the node.
	PointFleetProxy = "fleet.proxy"
	// PointPeerFill gates a node's outbound peer cache-fill requests; an
	// injected error degrades the fill to a miss (the node recomputes).
	PointPeerFill = "fleet.fill"
	// PointFleetJoin gates each of a node agent's outbound joins to a
	// coordinator, the first and every re-announce; an injected error
	// drops that join, which delays admission (the agent re-sends on its
	// -heartbeat-every cadence). It never demotes a member: the
	// coordinators' probes, not joins, are the liveness evidence.
	PointFleetJoin = "fleet.join"
	// PointFleetHandoff gates each per-key report push during a drain
	// hand-off; an injected error loses that key's push (the fleet falls
	// back to peer fill or recompute — answers never change).
	PointFleetHandoff = "fleet.handoff"
)

// Fault modes.
const (
	// ModeError (the default) returns an *InjectedError from Inject.
	ModeError = "error"
	// ModeLatency sleeps for the rule's latency and returns nil.
	ModeLatency = "latency"
)

// Error classes.
const (
	// ClassTransient (the default) marks the injected error retryable.
	ClassTransient = "transient"
	// ClassPermanent marks it non-retryable.
	ClassPermanent = "permanent"
)

// ErrInjected is the sentinel every injected error wraps, so callers can
// distinguish injected faults from organic ones with errors.Is.
var ErrInjected = errors.New("injected fault")

// InjectedError is the error Inject returns in error mode. It implements
// the retry package's Classifier, so the scheduler's transient/permanent
// decision applies to injected faults exactly as to real ones.
type InjectedError struct {
	Point string
	Class string
	Msg   string
}

func (e *InjectedError) Error() string {
	msg := e.Msg
	if msg == "" {
		msg = "injected fault"
	}
	return fmt.Sprintf("%s at %s (%s)", msg, e.Point, e.Class)
}

func (e *InjectedError) Unwrap() error   { return ErrInjected }
func (e *InjectedError) Transient() bool { return e.Class != ClassPermanent }

// RuleSpec configures one behavior at one injection point, as written in
// the JSON form of a fault spec.
type RuleSpec struct {
	// Point names the injection point (required).
	Point string `json:"point"`
	// Prob is the fire probability per check in [0, 1] (default 1).
	Prob *float64 `json:"prob,omitempty"`
	// Count caps the total fires (0 = unlimited).
	Count int `json:"count,omitempty"`
	// Skip ignores the rule for the first Skip checks of its point.
	Skip int `json:"skip,omitempty"`
	// Mode is "error" (default) or "latency".
	Mode string `json:"mode,omitempty"`
	// Class is "transient" (default) or "permanent"; error mode only.
	Class string `json:"class,omitempty"`
	// Latency is the injected delay as a Go duration string ("5ms");
	// latency mode only.
	Latency string `json:"latency,omitempty"`
	// Msg overrides the injected error text.
	Msg string `json:"msg,omitempty"`
}

// Spec is a full fault-injection configuration.
type Spec struct {
	// Seed drives every rule's RNG (default 1). The same seed replays the
	// same fault schedule for the same check sequence.
	Seed uint64 `json:"seed,omitempty"`
	// Rules are consulted in order per point; the first rule that fires
	// wins the check.
	Rules []RuleSpec `json:"rules"`
}

// rule is the compiled, stateful form of a RuleSpec.
type rule struct {
	prob    float64
	count   int
	skip    int
	mode    string
	class   string
	latency time.Duration
	msg     string

	rng    *rand.Rand
	checks int
	fires  int
}

// pointState carries a point's rules and counters.
type pointState struct {
	rules    []*rule
	checked  atomic.Uint64
	injected atomic.Uint64
}

// Registry is a compiled fault configuration. It is safe for concurrent
// use; rule state advances under one mutex.
type Registry struct {
	mu     sync.Mutex
	points map[string]*pointState
	seed   uint64
}

// New compiles a Spec, validating every rule.
func New(spec Spec) (*Registry, error) {
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	r := &Registry{points: map[string]*pointState{}, seed: seed}
	for i, rs := range spec.Rules {
		if rs.Point == "" {
			return nil, fmt.Errorf("faults: rule %d: empty point name", i)
		}
		ru := &rule{
			prob:  1,
			count: rs.Count,
			skip:  rs.Skip,
			mode:  rs.Mode,
			class: rs.Class,
			msg:   rs.Msg,
		}
		if rs.Prob != nil {
			ru.prob = *rs.Prob
		}
		if ru.prob < 0 || ru.prob > 1 {
			return nil, fmt.Errorf("faults: rule %d (%s): prob %v outside [0, 1]", i, rs.Point, ru.prob)
		}
		if ru.count < 0 || ru.skip < 0 {
			return nil, fmt.Errorf("faults: rule %d (%s): negative count/skip", i, rs.Point)
		}
		switch ru.mode {
		case "":
			ru.mode = ModeError
		case ModeError, ModeLatency:
		default:
			return nil, fmt.Errorf("faults: rule %d (%s): unknown mode %q", i, rs.Point, ru.mode)
		}
		switch ru.class {
		case "":
			ru.class = ClassTransient
		case ClassTransient, ClassPermanent:
		default:
			return nil, fmt.Errorf("faults: rule %d (%s): unknown class %q", i, rs.Point, ru.class)
		}
		if rs.Latency != "" {
			d, err := time.ParseDuration(rs.Latency)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faults: rule %d (%s): bad latency %q", i, rs.Point, rs.Latency)
			}
			ru.latency = d
		}
		if ru.mode == ModeLatency && ru.latency == 0 {
			return nil, fmt.Errorf("faults: rule %d (%s): latency mode needs a latency", i, rs.Point)
		}
		// Each rule gets its own seeded stream so adding a rule never
		// perturbs the draws of the others.
		ru.rng = rand.New(rand.NewSource(int64(seed ^ uint64(i+1)*0x9e3779b97f4a7c15)))
		ps := r.points[rs.Point]
		if ps == nil {
			ps = &pointState{}
			r.points[rs.Point] = ps
		}
		ps.rules = append(ps.rules, ru)
	}
	return r, nil
}

// Inject runs one check of point against the registry's rules. It
// returns nil when no rule fires (or a latency rule fired and slept),
// and an *InjectedError when an error rule fires.
func (r *Registry) Inject(point string) error {
	r.mu.Lock()
	ps := r.points[point]
	if ps == nil {
		r.mu.Unlock()
		return nil
	}
	var fired *rule
	for _, ru := range ps.rules {
		ru.checks++
		if ru.checks <= ru.skip {
			continue
		}
		if ru.count > 0 && ru.fires >= ru.count {
			continue
		}
		if ru.prob < 1 && ru.rng.Float64() >= ru.prob {
			continue
		}
		ru.fires++
		fired = ru
		break
	}
	r.mu.Unlock()

	ps.checked.Add(1)
	if fired == nil {
		return nil
	}
	ps.injected.Add(1)
	if fired.mode == ModeLatency {
		time.Sleep(fired.latency)
		return nil
	}
	return &InjectedError{Point: point, Class: fired.class, Msg: fired.msg}
}

// Points returns the configured point names, sorted.
func (r *Registry) Points() []string {
	names := make([]string, 0, len(r.points))
	for name := range r.points {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RegisterMetrics publishes faults.checked.<point> and
// faults.injected.<point> counters for every configured point.
func (r *Registry) RegisterMetrics(reg *telemetry.Registry) {
	for _, name := range r.Points() {
		ps := r.points[name]
		reg.Counter("faults.checked."+name, ps.checked.Load)
		reg.Counter("faults.injected."+name, ps.injected.Load)
	}
}

// active is the process-wide registry; nil means injection is disabled
// and every Inject call is a single atomic load.
var active atomic.Pointer[Registry]

// Activate installs r as the process-wide registry (nil deactivates).
func Activate(r *Registry) { active.Store(r) }

// Deactivate disables injection process-wide.
func Deactivate() { active.Store(nil) }

// Inject checks point against the process-wide registry. With no
// registry installed it returns nil immediately.
func Inject(point string) error {
	r := active.Load()
	if r == nil {
		return nil
	}
	return r.Inject(point)
}

// EnvVar is the environment variable both the daemon and the CLIs read a fault
// spec from when no explicit flag is given.
const EnvVar = "MALLACC_FAULTS"

// ParseSpec parses the three accepted spellings of a fault spec:
//
//   - a JSON object: {"seed":7,"rules":[{"point":"simsvc.exec","prob":0.2}]}
//   - @path: the JSON object read from a file
//   - compact: "seed=7;simsvc.exec,prob=0.2,class=transient;simsvc.http,prob=0.1"
//     — semicolon-separated rules, each "point[,key=value...]" with keys
//     prob, count, skip, mode, class, latency, msg; an optional leading
//     "seed=N" sets the seed.
func ParseSpec(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Spec{}, errors.New("faults: empty spec")
	}
	if strings.HasPrefix(s, "@") {
		b, err := os.ReadFile(s[1:])
		if err != nil {
			return Spec{}, fmt.Errorf("faults: read spec file: %w", err)
		}
		s = strings.TrimSpace(string(b))
	}
	if strings.HasPrefix(s, "{") {
		var spec Spec
		dec := json.NewDecoder(strings.NewReader(s))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return Spec{}, fmt.Errorf("faults: bad JSON spec: %w", err)
		}
		return spec, nil
	}
	return parseCompact(s)
}

// parseCompact parses the flag-friendly one-line form.
func parseCompact(s string) (Spec, error) {
	var spec Spec
	for _, group := range strings.Split(s, ";") {
		group = strings.TrimSpace(group)
		if group == "" {
			continue
		}
		fields := strings.Split(group, ",")
		head := strings.TrimSpace(fields[0])
		if v, ok := strings.CutPrefix(head, "seed="); ok && len(fields) == 1 {
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("faults: bad seed %q", v)
			}
			spec.Seed = seed
			continue
		}
		if strings.Contains(head, "=") {
			return Spec{}, fmt.Errorf("faults: rule %q must start with a point name", group)
		}
		rs := RuleSpec{Point: head}
		for _, kv := range fields[1:] {
			kv = strings.TrimSpace(kv)
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return Spec{}, fmt.Errorf("faults: bad option %q in rule %q", kv, group)
			}
			switch key {
			case "prob":
				p, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return Spec{}, fmt.Errorf("faults: bad prob %q", val)
				}
				rs.Prob = &p
			case "count":
				n, err := strconv.Atoi(val)
				if err != nil {
					return Spec{}, fmt.Errorf("faults: bad count %q", val)
				}
				rs.Count = n
			case "skip":
				n, err := strconv.Atoi(val)
				if err != nil {
					return Spec{}, fmt.Errorf("faults: bad skip %q", val)
				}
				rs.Skip = n
			case "mode":
				rs.Mode = val
			case "class":
				rs.Class = val
			case "latency":
				rs.Latency = val
			case "msg":
				rs.Msg = val
			default:
				return Spec{}, fmt.Errorf("faults: unknown option %q in rule %q", key, group)
			}
		}
		spec.Rules = append(spec.Rules, rs)
	}
	if len(spec.Rules) == 0 {
		return Spec{}, errors.New("faults: spec has no rules")
	}
	return spec, nil
}

// FromSpecString compiles a spec string into a registry.
func FromSpecString(s string) (*Registry, error) {
	spec, err := ParseSpec(s)
	if err != nil {
		return nil, err
	}
	return New(spec)
}

// FromEnv compiles the MALLACC_FAULTS environment variable; (nil, nil)
// when unset or empty.
func FromEnv() (*Registry, error) {
	s := os.Getenv(EnvVar)
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	return FromSpecString(s)
}

// ActivateFromSpec is the CLI entry point: it compiles flagSpec (falling
// back to $MALLACC_FAULTS when flagSpec is empty), installs the registry
// process-wide, and returns it. (nil, nil) means no faults configured.
func ActivateFromSpec(flagSpec string) (*Registry, error) {
	var r *Registry
	var err error
	if strings.TrimSpace(flagSpec) != "" {
		r, err = FromSpecString(flagSpec)
	} else {
		r, err = FromEnv()
	}
	if err != nil || r == nil {
		return nil, err
	}
	Activate(r)
	return r, nil
}
