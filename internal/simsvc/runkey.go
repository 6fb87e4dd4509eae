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

// simKey mirrors every deterministic multicore.Config field (workloads by
// name) so two configs that simulate identically hash identically. A test
// guards the mirror with reflection: adding a field to multicore.Config
// without teaching simKey about it fails the build's tests rather than
// silently aliasing distinct runs. CoreCalls and Registry make a config
// uncacheable (per-core overrides are test-only; an external registry
// aliases state the key cannot see).
type simKey struct {
	Cores          int
	Variant        uint8
	Backend        string
	MCEntries      int
	Workload       string
	CallsPerCore   int
	Seed           uint64
	Core           multicore.CoreConfig
	EpochCycles    uint64
	RemoteFreeProb float64
	// Progress/ProgressEvery are observability-only: they never change
	// simulation results, so the key zeroes them (a run with a reporter
	// attached hashes the same as one without).
	Progress      bool
	ProgressEvery uint64
}

// runKeyOf content-addresses a single-core run by the engine config it
// lowers to.
func runKeyOf(opt harness.Options) (string, bool) { return simKeyOf("run", opt.Config()) }

// clusterKeyOf content-addresses a multi-core run.
func clusterKeyOf(cfg multicore.Config) (string, bool) { return simKeyOf("cluster", cfg) }

// simKeyOf content-addresses a run of one kind. Only stock workloads are
// keyable — a custom workload's behavior is not derivable from its name, so
// those runs (and recorded traces) bypass the run-level cache. The key
// normalizes through multicore.Config.WithDefaults, so unset and explicit
// defaults collide, and zeroes knobs the chosen variant ignores, so e.g. a
// baseline run hashes the same at any MCEntries.
func simKeyOf(kind string, cfg multicore.Config) (string, bool) {
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
	cc := n.Core
	if n.Variant != multicore.Mallacc {
		// The malloc-cache knobs only shape mallacc runs.
		n.MCEntries = 0
		cc.IndexModeOff = false
		cc.MCReplacement = core.ReplaceLRU
		cc.MCNoNextSlot = false
		cc.MCNoRestoreOnMiss = false
		cc.Ablate = tcmalloc.Ablation{}
	}
	if !cc.UseDropSteps {
		cc.DropSteps = [uop.NumSteps]bool{}
	}
	k := simKey{
		Cores:   n.Cores,
		Variant: uint8(n.Variant),
		// "tcmalloc" and "" are the same substrate; keys must collide.
		Backend:        catalog.NormalizeBackend(n.Backend),
		MCEntries:      n.MCEntries,
		Workload:       name,
		CallsPerCore:   n.CallsPerCore,
		Seed:           n.Seed,
		Core:           cc,
		EpochCycles:    n.EpochCycles,
		RemoteFreeProb: n.RemoteFreeProb,
	}
	return hashKey(kind, k), true
}

func hashKey(kind string, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic("simsvc: marshal run key: " + err.Error())
	}
	sum := sha256.Sum256(append([]byte(kind+":"), b...))
	return hex.EncodeToString(sum[:])
}
