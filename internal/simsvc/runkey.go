package simsvc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"mallacc/internal/catalog"
	"mallacc/internal/core"
	"mallacc/internal/harness"
	"mallacc/internal/multicore"
	"mallacc/internal/tcmalloc"
	"mallacc/internal/uop"
	"mallacc/internal/workload"
)

// runKey mirrors every harness.Options field (workloads by name) so two
// option values that simulate identically hash identically. A test guards
// the mirror with reflection: adding a field to harness.Options without
// teaching runKey about it fails the build's tests rather than silently
// aliasing distinct runs.
type runKey struct {
	Workload           string
	Variant            uint8
	Backend            string
	MCEntries          int
	IndexModeOff       bool
	DropSteps          [uop.NumSteps]bool
	UseDropSteps       bool
	Calls              int
	Seed               uint64
	SampleInterval     *int64
	DisableSizedDelete bool
	AnalyticCPU        bool
	Ablate             tcmalloc.Ablation
	MCReplacement      uint8
	MCNoNextSlot       bool
	MCNoRestoreOnMiss  bool
	NoPrefetchBlocking bool
	Threads            int
	SwitchEvery        int
	// Progress/ProgressEvery are observability-only: they never change
	// simulation results, so the key zeroes them (a run with a reporter
	// attached hashes the same as one without).
	Progress      bool
	ProgressEvery uint64
}

// runKeyOf content-addresses a single-core run. Only stock workloads are
// keyable — a custom workload's behavior is not derivable from its name, so
// those runs (and recorded traces) bypass the run-level cache. The key
// normalizes the same defaults harness.Run applies and zeroes knobs the
// chosen variant ignores, so e.g. a baseline run hashes the same at any
// MCEntries.
func runKeyOf(opt harness.Options) (string, bool) {
	if opt.Workload == nil {
		return "", false
	}
	name := opt.Workload.Name()
	if !workload.Known(name) {
		return "", false
	}
	if _, isTrace := opt.Workload.(*workload.Trace); isTrace {
		return "", false
	}
	if opt.Calls <= 0 {
		opt.Calls = 50000
	}
	if opt.MCEntries <= 0 {
		opt.MCEntries = 32
	}
	if opt.Threads <= 0 {
		opt.Threads = 1
	}
	if opt.Variant != harness.VariantMallacc {
		// The malloc-cache knobs only shape mallacc runs.
		opt.MCEntries = 0
		opt.IndexModeOff = false
		opt.MCReplacement = core.ReplaceLRU
		opt.MCNoNextSlot = false
		opt.MCNoRestoreOnMiss = false
		opt.Ablate = tcmalloc.Ablation{}
	}
	if !opt.UseDropSteps {
		opt.DropSteps = [uop.NumSteps]bool{}
	}
	// "tcmalloc" and "" are the same substrate; keys must collide.
	opt.Backend = catalog.NormalizeBackend(opt.Backend)
	k := runKey{
		Workload:           name,
		Variant:            uint8(opt.Variant),
		Backend:            opt.Backend,
		MCEntries:          opt.MCEntries,
		IndexModeOff:       opt.IndexModeOff,
		DropSteps:          opt.DropSteps,
		UseDropSteps:       opt.UseDropSteps,
		Calls:              opt.Calls,
		Seed:               opt.Seed,
		SampleInterval:     opt.SampleInterval,
		DisableSizedDelete: opt.DisableSizedDelete,
		AnalyticCPU:        opt.AnalyticCPU,
		Ablate:             opt.Ablate,
		MCReplacement:      uint8(opt.MCReplacement),
		MCNoNextSlot:       opt.MCNoNextSlot,
		MCNoRestoreOnMiss:  opt.MCNoRestoreOnMiss,
		NoPrefetchBlocking: opt.NoPrefetchBlocking,
		Threads:            opt.Threads,
		SwitchEvery:        opt.SwitchEvery,
	}
	return hashKey("run", k), true
}

// clusterKey mirrors multicore.Config's deterministic fields. CoreCalls
// and Registry make a config uncacheable (per-core overrides are test-only;
// an external registry aliases state the key cannot see).
type clusterKey struct {
	Cores          int
	Variant        uint8
	Backend        string
	MCEntries      int
	Workload       string
	CallsPerCore   int
	Seed           uint64
	EpochCycles    uint64
	RemoteFreeProb float64
	// Observability-only, zeroed like runKey's counterparts.
	Progress      bool
	ProgressEvery uint64
}

// clusterKeyOf content-addresses a multi-core run, normalized through
// multicore.Config.WithDefaults so unset and explicit defaults collide.
func clusterKeyOf(cfg multicore.Config) (string, bool) {
	if cfg.Workload == nil || cfg.Registry != nil || len(cfg.CoreCalls) > 0 {
		return "", false
	}
	name := cfg.Workload.Name()
	if !workload.Known(name) {
		return "", false
	}
	if _, isTrace := cfg.Workload.(*workload.Trace); isTrace {
		return "", false
	}
	n := cfg.WithDefaults()
	k := clusterKey{
		Cores:          n.Cores,
		Variant:        uint8(n.Variant),
		Backend:        catalog.NormalizeBackend(n.Backend),
		MCEntries:      n.MCEntries,
		Workload:       name,
		CallsPerCore:   n.CallsPerCore,
		Seed:           n.Seed,
		EpochCycles:    n.EpochCycles,
		RemoteFreeProb: n.RemoteFreeProb,
	}
	return hashKey("cluster", k), true
}

func hashKey(kind string, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic("simsvc: marshal run key: " + err.Error())
	}
	sum := sha256.Sum256(append([]byte(kind+":"), b...))
	return hex.EncodeToString(sum[:])
}
