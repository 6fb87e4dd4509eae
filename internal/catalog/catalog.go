// Package catalog is the single registry of allocator backend and
// accelerator variant names. Every entry point that accepts a backend or
// variant by name — the mallacc-sim and mallacc-bench CLIs, the simulation
// service's JobSpec validation, and the harness experiment plumbing —
// resolves names through this package, so an unknown name always fails with
// the same enumerated list instead of each CLI growing its own switch.
//
// The package is a leaf: it imports nothing from the simulator, so harness,
// multicore, simsvc and the CLIs can all depend on it without cycles. The
// name-to-enum lowering lives next to each enum (harness.VariantByName,
// multicore.VariantByName); only the names and their validity rules live
// here.
package catalog

import (
	"fmt"
	"strings"
)

// Variant names, in presentation order. A variant selects the acceleration
// strategy layered on the simulated cores.
const (
	// VariantBaseline is the stock software fast path.
	VariantBaseline = "baseline"
	// VariantMallacc is the paper's in-core malloc cache.
	VariantMallacc = "mallacc"
	// VariantLimit is the paper's limit study (fast-path steps free).
	VariantLimit = "limit"
	// VariantOffload dispatches malloc/free over a modeled queue to a
	// dedicated lightweight allocation core (SpeedMalloc-style).
	VariantOffload = "offload"
)

// Backend names, in presentation order. A backend selects the allocator
// substrate the simulated system runs.
const (
	// BackendTCMalloc is the paper's anchor allocator and the default.
	BackendTCMalloc = "tcmalloc"
	// BackendLockFree is the Blelloch–Wei-style concurrent fixed-size
	// allocator: per-class lock-free stacks, constant-time alloc/free, no
	// central/pageheap lock path.
	BackendLockFree = "lockfree"
	// BackendJemalloc, BackendHoard and BackendBuddy are the
	// cross-allocator experiment substrates. The crossalloc and buddy
	// experiments run them through the same harness driver as the
	// runnable backends, but they are not runnable as standalone
	// run/cluster jobs.
	BackendJemalloc = "jemalloc"
	BackendHoard    = "hoard"
	BackendBuddy    = "buddy"
)

// Variants returns every variant name in presentation order.
func Variants() []string {
	return []string{VariantBaseline, VariantMallacc, VariantLimit, VariantOffload}
}

// Backends returns every backend name in presentation order.
func Backends() []string {
	return []string{BackendTCMalloc, BackendLockFree, BackendJemalloc, BackendHoard, BackendBuddy}
}

// RunnableBackends returns the backends a run/cluster job (or the -backend
// CLI flag) may select. The experiment-only substrates are excluded: only
// the crossalloc and buddy experiments run them.
func RunnableBackends() []string {
	return []string{BackendTCMalloc, BackendLockFree}
}

// CheckVariant validates a variant name, enumerating the valid options on
// failure.
func CheckVariant(name string) error {
	for _, v := range Variants() {
		if name == v {
			return nil
		}
	}
	return fmt.Errorf("unknown variant %q (want %s)", name, orList(Variants()))
}

// CheckBackend validates a backend name against the full catalog,
// enumerating the valid options on failure.
func CheckBackend(name string) error {
	for _, b := range Backends() {
		if name == b {
			return nil
		}
	}
	return fmt.Errorf("unknown backend %q (want %s)", name, orList(Backends()))
}

// CheckRunnableBackend validates a backend name for a run/cluster job: the
// name must exist in the catalog and be runnable standalone.
func CheckRunnableBackend(name string) error {
	if err := CheckBackend(name); err != nil {
		return err
	}
	for _, b := range RunnableBackends() {
		if name == b {
			return nil
		}
	}
	return fmt.Errorf("backend %q is experiment-only (see the crossalloc and buddy experiments); runnable backends: %s",
		name, orList(RunnableBackends()))
}

// CheckCombo validates a (backend, variant) pair for a run/cluster job.
// The offload core owns a TCMalloc heap (its whole point is keeping that
// allocator's state resident on one core), and the limit study ablates
// TCMalloc's fast-path steps, so both require the tcmalloc backend. The
// lock-free backend accepts baseline and mallacc (size-class acceleration
// only — caching stack heads in one core would go stale the moment a peer
// popped, so the list cache is deliberately not offered there).
func CheckCombo(backend, variant string) error {
	if err := CheckRunnableBackend(backend); err != nil {
		return err
	}
	if err := CheckVariant(variant); err != nil {
		return err
	}
	if backend == BackendLockFree {
		switch variant {
		case VariantBaseline, VariantMallacc:
			return nil
		}
		return fmt.Errorf("variant %q requires the tcmalloc backend; the lockfree backend supports %s",
			variant, orList([]string{VariantBaseline, VariantMallacc}))
	}
	return nil
}

// Strategy is one point of the design-space study: a named
// (backend, variant) combination evaluated on identical traces.
type Strategy struct {
	// Name labels the strategy in reports ("stock", "offload", ...).
	Name string
	// Backend and Variant are catalog names; every pair passes CheckCombo.
	Backend string
	Variant string
}

// Strategies returns the accelerator strategies the designspace experiment
// compares, in presentation order: stock TCMalloc, the paper's malloc
// cache, the SpeedMalloc-style offload core, the Blelloch–Wei lock-free
// backend, and the malloc cache layered on the lock-free backend.
func Strategies() []Strategy {
	return []Strategy{
		{Name: "stock", Backend: BackendTCMalloc, Variant: VariantBaseline},
		{Name: "mallacc", Backend: BackendTCMalloc, Variant: VariantMallacc},
		{Name: "offload", Backend: BackendTCMalloc, Variant: VariantOffload},
		{Name: "lockfree", Backend: BackendLockFree, Variant: VariantBaseline},
		{Name: "lockfree+mallacc", Backend: BackendLockFree, Variant: VariantMallacc},
	}
}

// NormalizeBackend maps the empty string and the default backend name to
// the canonical empty spelling the service's content addresses use: legacy
// job specs predate the backend field, so "tcmalloc" must canonicalize to
// the same bytes (and therefore the same SHA-256 key) as an unset field.
func NormalizeBackend(name string) string {
	if name == BackendTCMalloc {
		return ""
	}
	return name
}

// orList renders names as `"a", "b" or "c"` for error messages.
func orList(names []string) string {
	quoted := make([]string, len(names))
	for i, n := range names {
		quoted[i] = fmt.Sprintf("%q", n)
	}
	if len(quoted) == 1 {
		return quoted[0]
	}
	return strings.Join(quoted[:len(quoted)-1], ", ") + " or " + quoted[len(quoted)-1]
}
