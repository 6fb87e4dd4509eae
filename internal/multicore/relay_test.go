package multicore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"mallacc/internal/stats"
	"mallacc/internal/workload"
)

// Relay scheduler edge cases. Each test pins its run's telemetry snapshot
// byte-for-byte to a golden in testdata, so a change to how the token moves
// cannot shift the interleaving unnoticed. A lost token shows up as a
// hang; run the package with -timeout to turn that into a failure.
//
// Regenerate with UPDATE_GOLDEN=1 go test ./internal/multicore -run 'TestRelay|TestLockstep'
// (only when the simulated behaviour is meant to change).

// checkGolden compares snap with testdata/<name>.golden.
func checkGolden(t *testing.T, name string, snap []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name+".golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(snap, want) {
		t.Fatalf("telemetry snapshot drifted from %s (%d bytes, want %d)", golden, len(snap), len(want))
	}
}

// TestRelayOneCore runs a 1-core cluster: every yield wraps the token back
// to the only runnable core, which must continue without blocking.
func TestRelayOneCore(t *testing.T) {
	r := Run(Config{
		Cores:        1,
		Variant:      Mallacc,
		Workload:     wl(t, "ubench.gauss_free"),
		CallsPerCore: 3000,
		Seed:         1,
	})
	if r.Yields == 0 || r.Epochs == 0 {
		t.Fatalf("1-core run never yielded: yields %d, epochs %d", r.Yields, r.Epochs)
	}
	checkGolden(t, "relay_one_core", snapshotJSON(t, r))
}

// TestRelayUnevenRetire gives cores very different budgets: cores 0 and 2
// retire inside their first quantum (long enough to absorb the cold first
// calls), so the token must skip them from the first wrap on, and the
// survivors keep rotating until the longest shard ends.
func TestRelayUnevenRetire(t *testing.T) {
	r := Run(Config{
		Cores:        5,
		Variant:      Baseline,
		Workload:     wl(t, "ubench.tp_small"),
		CallsPerCore: 3000,
		CoreCalls:    []int{2, 800, 1, 0, 3000},
		EpochCycles:  40000,
		Seed:         4,
	})
	for _, id := range []int{0, 2} {
		if c := r.PerCore[id]; c.DoneEpoch != 0 || c.Yields != 0 {
			t.Errorf("core %d did not retire in its first quantum: done epoch %d, yields %d", id, c.DoneEpoch, c.Yields)
		}
	}
	if r.PerCore[1].DoneEpoch >= r.PerCore[4].DoneEpoch {
		t.Errorf("core 1 (800 calls) retired no earlier than core 4 (3000 calls)")
	}
	checkGolden(t, "relay_uneven_retire", snapshotJSON(t, r))
}

// inboxProbe wraps a workload and, when each shard ends, records how many
// remote frees sit undrained in the inboxes of cores that have already
// retired. It runs on the token holder, so the reads are ordered by the
// scheduler.
type inboxProbe struct {
	workload.Workload
	stranded int
}

func (p *inboxProbe) Run(app workload.App, budget int, rng *stats.RNG) {
	p.Workload.Run(app, budget, rng)
	for _, peer := range app.(*coreState).eng.cores {
		if peer.done {
			p.stranded = max(p.stranded, len(peer.inbox)-peer.inboxPos)
		}
	}
}

// TestRelayRetireWithPostedFrees retires core 0 early while its peers keep
// posting frees to its inbox: those frees must wait for the end-of-run
// drain, on core 0, and none may be lost.
func TestRelayRetireWithPostedFrees(t *testing.T) {
	probe := &inboxProbe{Workload: wl(t, "ubench.tp_small")}
	r := Run(Config{
		Cores:          4,
		Variant:        Mallacc,
		Workload:       probe,
		CallsPerCore:   3000,
		CoreCalls:      []int{40},
		RemoteFreeProb: 0.3,
		Seed:           2,
	})
	if probe.stranded == 0 {
		t.Fatal("no remote frees were left in a retired core's inbox")
	}
	var posted, drained uint64
	for _, c := range r.PerCore {
		posted += c.RemotePosted
		drained += c.RemoteDrained
	}
	if posted != drained {
		t.Fatalf("remote frees lost: posted %d, drained %d", posted, drained)
	}
	checkGolden(t, "relay_retire_posted_frees", snapshotJSON(t, r))
}

// TestRelaySixteenCores runs designspace's widest cluster at GOMAXPROCS 1
// and 2: the hand-off must neither deadlock on one P nor depend on how
// many Ps there are.
func TestRelaySixteenCores(t *testing.T) {
	var snaps [][]byte
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		r := Run(Config{
			Cores:        16,
			Variant:      Mallacc,
			Workload:     wl(t, "ubench.gauss_free"),
			CallsPerCore: 800,
			Seed:         1,
		})
		runtime.GOMAXPROCS(prev)
		snaps = append(snaps, snapshotJSON(t, r))
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatal("16-core snapshot differs between GOMAXPROCS 1 and 2")
	}
	checkGolden(t, "relay_sixteen_cores", snaps[0])
}

// noRemoteFreesConfig is a run with cross-core free traffic disabled, so
// every free executes on the core that allocated the block.
func noRemoteFreesConfig(t *testing.T, variant Variant, wlName string, cores int) Config {
	t.Helper()
	return Config{
		Cores:          cores,
		Variant:        variant,
		Workload:       wl(t, wlName),
		CallsPerCore:   3000,
		Seed:           1,
		RemoteFreeProb: -1,
	}
}

// TestRelayNoRemoteFrees runs an 8-core cluster with remote frees disabled
// at GOMAXPROCS 1 and at the host's CPU count: no core may post or drain a
// remote free, and the snapshot must not depend on how many Ps there are.
func TestRelayNoRemoteFrees(t *testing.T) {
	cfg := noRemoteFreesConfig(t, Mallacc, "ubench.gauss_free", 8)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var snaps [][]byte
	for _, procs := range []int{1, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		r := Run(cfg)
		if r.RemoteFrees != 0 {
			t.Fatalf("GOMAXPROCS=%d: %d remote frees with RemoteFreeProb < 0", procs, r.RemoteFrees)
		}
		for id, c := range r.PerCore {
			if c.RemotePosted != 0 || c.RemoteDrained != 0 {
				t.Fatalf("GOMAXPROCS=%d: core %d posted %d / drained %d remote frees", procs, id, c.RemotePosted, c.RemoteDrained)
			}
		}
		snaps = append(snaps, snapshotJSON(t, r))
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("snapshot differs between GOMAXPROCS 1 and %d", runtime.NumCPU())
	}
	checkGolden(t, "relay_no_remote_frees", snaps[0])
}

// TestLockstepEquivalence pins the no-remote-frees grid — every variant on
// three workloads, 4 cores — to goldens recorded from the serialized relay
// when a second, barrier-phase scheduler still ran these configs and
// matched it byte for byte. The relay must keep producing that output.
func TestLockstepEquivalence(t *testing.T) {
	for _, variant := range []Variant{Baseline, Mallacc, Limit} {
		for _, wlName := range []string{"ubench.tp_small", "ubench.gauss_free", "server.requests"} {
			t.Run(fmt.Sprintf("%s/%s", variant, wlName), func(t *testing.T) {
				r := Run(noRemoteFreesConfig(t, variant, wlName, 4))
				checkGolden(t, fmt.Sprintf("lockstep_%s_%s", variant, wlName), snapshotJSON(t, r))
			})
		}
	}
}

// corePanic is the value panicAfter's shard panics with.
type corePanic struct{ core, calls int }

// panicAfter is a workload whose shard on core `core` panics once it has
// issued `after` allocator calls. At that moment it records how many calls
// every core has simulated, so the test can check that none runs another.
type panicAfter struct {
	core, after int
	atPanic     []uint64
}

func (p *panicAfter) Name() string { return "test.panic_after" }

func (p *panicAfter) Run(app workload.App, budget int, rng *stats.RNG) {
	cs := app.(*coreState)
	for i := 0; i < budget; i += 2 {
		if cs.id == p.core && i >= p.after {
			p.atPanic = simulatedCalls(cs.eng)
			panic(corePanic{p.core, i})
		}
		app.Work(400, 0)
		app.Free(app.Malloc(64+rng.Uint64n(256)), 0)
	}
}

// simulatedCalls returns each core's scheduled allocator calls so far.
func simulatedCalls(eng *Engine) []uint64 {
	calls := make([]uint64, len(eng.cores))
	for i, cs := range eng.cores {
		calls[i] = cs.cpu.Stats.Calls
	}
	return calls
}

// TestRelayPanicUnwinds panics on core 2 mid-run: Engine.Run must re-raise
// that value on its caller's goroutine, unwind every other core's shard
// without simulating another call, keep its cores out of the pool, and
// leave no coroutine behind.
func TestRelayPanicUnwinds(t *testing.T) {
	w := &panicAfter{core: 2, after: 300}
	eng := New(Config{
		Cores:        4,
		Variant:      Mallacc,
		Workload:     w,
		CallsPerCore: 3000,
		Seed:         1,
	})
	before := runtime.NumGoroutine()
	var got any
	func() {
		defer func() { got = recover() }()
		eng.Run()
	}()
	if want := (corePanic{2, 300}); got != want {
		t.Fatalf("Run panicked with %v, want %v", got, want)
	}
	// A panicking run releases no core: had it released any, this run
	// would take it from the pool and reset its counts.
	Run(Config{Cores: 4, Variant: Mallacc, Workload: wl(t, "ubench.tp_small"), CallsPerCore: 300, Seed: 3})
	if after := simulatedCalls(eng); !slices.Equal(after, w.atPanic) {
		t.Fatalf("cores simulated calls after the panic: %v at the panic, %v after Run", w.atPanic, after)
	}
	suspended := 0
	for _, cs := range eng.cores {
		if !cs.done && cs.cpu.Stats.Calls > 0 {
			suspended++
		}
	}
	if suspended < 2 {
		t.Fatalf("only %d cores were mid-shard at the panic; the test does not exercise the unwind", suspended)
	}
	// Goroutines left over from earlier tests may still be exiting, so
	// the count may only fall; a leaked coroutine keeps it above before.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > before {
		t.Fatalf("%d goroutines 1s after Run, %d before: a core coroutine leaked", n, before)
	}
}
