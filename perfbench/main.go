// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator through the paths users run — the in-process simulation
// service behind mallacc-bench, loopback HTTP to a simsvc node, and
// loopback HTTP to a fleet coordinator in front of two nodes — and prints
// one JSON result line.
//
//	go run . --workload fig13 --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics of untraced
// repetitions; with --trace 1 it holds the per-layer metrics of a CPU
// profile and boundary spans taken around one more repetition. README.md
// explains the workloads and metrics; run.py builds and runs this program
// from a checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of each path sees. BENCHMARK.json lists
// the same names with their regression bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_uops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"host_alloc_mb", "MB"},
	{"job_miss_p50_ms", "ms"},
	{"job_miss_p90_ms", "ms"},
	{"job_hit_p50_ms", "ms"},
	{"job_hit_p90_ms", "ms"},
}

// perLayer are the traced run's metrics: module self time, boundary spans
// and counts. Metrics a workload does not reach read 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range append(append([]string(nil), simLayers...), hostLayers...) {
		defs = append(defs, metricDef{l + ".self_s", "s"})
	}
	return append(defs, []metricDef{
		{"layers.covered_pct", "%"},
		{"harness.cell_s_p50", "s"},
		{"harness.cells", "count"},
		{"harness.cell_overlap", "ratio"},
		{"multicore.cell_s_p50", "s"},
		{"multicore.cells", "count"},
		{"multicore.cell_overlap", "ratio"},
		{"simsvc.queue_wait_ms_p50", "ms"},
		{"simsvc.run_ms_p50", "ms"},
		{"simsvc.finish_ms_p50", "ms"},
		{"simsvc.http_ms_p50", "ms"},
		{"fleet.proxy_hop_ms_p50", "ms"},
		{"simsvc.cache.mem_hits", "count"},
		{"simsvc.cache.disk_hits", "count"},
		{"simsvc.cache.writes", "count"},
		{"simsvc.runcache.misses", "count"},
		{"fleet.node_share_max", "ratio"},
		{"fleet.failovers", "count"},
		{"fleet.redirects", "count"},
		{"sim.uops", "count"},
		{"sim.calls", "count"},
		{"sim.l1d_misses", "count"},
		{"sim.host_ns_per_uop", "ns"},
		{"trace.wall_s", "s"},
		{"trace.untraced_wall_s", "s"},
		{"trace.overhead_s", "s"},
	}...)
}()

// workloadDef is one benchmark workload. nominal is the seconds one
// repetition takes on a 2-core host; it sizes the repetition count so that
// a run measures about --seconds of work, the same count on every run.
type workloadDef struct {
	nominal float64
	rep     func(b *bench, rep int, traced bool) error
}

var workloads = map[string]workloadDef{
	"fig13":       {nominal: 6.5, rep: experimentRep("fig13")},
	"designspace": {nominal: 8.5, rep: experimentRep("designspace")},
	"service":     {nominal: 3.3, rep: serviceRep},
	"fleet":       {nominal: 4, rep: fleetRep},
}

// deadline bounds a whole run; past it the run aborts without a result.
const deadline = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "fig13 | designspace | service | fleet")
		seed    = flag.Uint64("seed", 1, "input seed (>= 1)")
		seconds = flag.Int("seconds", 12, "work to measure, in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		root    = flag.String("root", "..", "checkout root holding results/metrics")
		work    = flag.String("work", os.TempDir(), "scratch directory for service caches")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seed == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seed %d, seconds %d, trace %d)\n",
			*name, *seed, *seconds, *trace)
		os.Exit(2)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(3)
	})
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		root:     *root,
		dir:      dir,
		ledger:   filepath.Join(*work, fmt.Sprintf("counts-%s-%d.json", *name, *seed)),
		nproc:    runtime.NumCPU(),
		layer:    map[string]float64{},
	}
	err = b.run(w, *seconds, *trace == 1)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// bench accumulates one run's samples, counts and check outcomes.
type bench struct {
	workload string
	seed     uint64
	root     string // checkout root: pinned digests live under results/metrics
	dir      string // this run's scratch directory
	ledger   string // exact-repeat counts recorded by earlier runs of this seed
	nproc    int

	attempted, failed int
	broken            []string // exact-repeat violations: the run is not correct

	setup, wall, allocMB []float64
	rawWall, steal       []float64 // unscaled wall times and their steal shares
	peakRSSMB            float64
	uops                 float64 // simulated uops of one repetition
	miss, hit            []float64
	missSpans            []jobSpan // server spans of the miss samples
	counts               []map[string]uint64

	ref        []byte             // experiment report of the first repetition
	layer      map[string]float64 // per-layer metrics of the traced run
	tracedWall float64
}

// addSetup files the wall time of a repetition's set-up phase.
func (b *bench) addSetup(iv interval) {
	d, f := iv.end()
	b.setup = append(b.setup, unshared(d, f))
}

// fail records a failed operation: an errored or refused job, or an
// output that did not match its check.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

func (b *bench) run(w workloadDef, seconds int, traced bool) error {
	reps := int(math.Round(float64(seconds) / w.nominal))
	if reps < 2 {
		reps = 2
	}
	if traced {
		reps = 1
	}
	step := func(what string, fn func() error) error {
		t0, c0 := time.Now(), cpuSeconds()
		err := fn()
		fmt.Fprintf(os.Stderr, "perfbench: %s took %.2fs (%.2f CPU s)\n", what, time.Since(t0).Seconds(), cpuSeconds()-c0)
		return err
	}
	for i := 0; i < reps; i++ {
		if err := step(fmt.Sprintf("repetition %d", i+1), func() error { return w.rep(b, i, false) }); err != nil {
			return err
		}
	}
	if traced {
		if err := step("traced repetition", func() error { return w.rep(b, reps, true) }); err != nil {
			return err
		}
	}
	b.checkRepeats()
	return b.report(traced)
}

// recordCounts files one repetition's exact-repeat counts.
func (b *bench) recordCounts(c map[string]uint64) { b.counts = append(b.counts, c) }

// checkRepeats compares every repetition's counts with the first and with
// the counts an earlier run of the same seed recorded. Counts are pure
// functions of the seed; a difference means the program did different
// work (a warm job recomputed, a cell simulated twice) and breaks the run.
func (b *bench) checkRepeats() {
	ref := map[string]uint64{}
	for _, c := range b.counts {
		for k, v := range c {
			if _, ok := ref[k]; !ok {
				ref[k] = v
			}
		}
	}
	var prev map[string]uint64
	if raw, err := os.ReadFile(b.ledger); err == nil {
		if json.Unmarshal(raw, &prev) == nil {
			ref = prev
		}
	}
	for _, c := range b.counts {
		for k, v := range c {
			if want, ok := ref[k]; ok && want != v {
				b.broken = append(b.broken, fmt.Sprintf("%s = %d, want %d", k, v, want))
			}
		}
	}
	if prev == nil && len(b.broken) == 0 {
		if raw, err := json.Marshal(ref); err == nil {
			tmp := b.ledger + ".tmp"
			if os.WriteFile(tmp, raw, 0o644) == nil {
				os.Rename(tmp, b.ledger)
			}
		}
	}
	for _, s := range b.broken {
		fmt.Fprintln(os.Stderr, "perfbench: BROKEN:", s)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report prints the human-readable table (name, value, unit, samples),
// the host line, and last the JSON result.
func (b *bench) report(traced bool) error {
	values := map[string]float64{}
	samples := map[string]int{}
	var defs []metricDef
	if traced {
		defs = perLayer
		for k, v := range b.layer {
			values[k] = v
		}
		b.spanMetrics(values)
		if u := values["sim.uops"]; u > 0 {
			hot := values["cpu.self_s"] + values["cachesim.self_s"] + values["uop.self_s"]
			values["sim.host_ns_per_uop"] = hot * 1e9 / u
		}
		values["trace.wall_s"] = b.tracedWall
		values["trace.untraced_wall_s"] = median(b.wall)
		values["trace.overhead_s"] = b.tracedWall - median(b.wall)
	} else {
		defs = endToEnd
		if highestTail(len(b.miss)) < 90 || highestTail(len(b.hit)) < 90 {
			return fmt.Errorf("too few job samples for a p90 (%d misses, %d hits)", len(b.miss), len(b.hit))
		}
		wall := median(b.wall)
		values["setup_s"], samples["setup_s"] = median(b.setup), len(b.setup)
		values["wall_s"], samples["wall_s"] = wall, len(b.wall)
		values["sim_uops_per_s"], samples["sim_uops_per_s"] = b.uops/wall, len(b.wall)
		values["peak_rss_mb"], samples["peak_rss_mb"] = b.peakRSSMB, 1
		values["host_alloc_mb"], samples["host_alloc_mb"] = median(b.allocMB), len(b.allocMB)
		values["job_miss_p50_ms"] = median(b.miss)
		values["job_miss_p90_ms"] = percentile(b.miss, 90)
		values["job_hit_p50_ms"] = median(b.hit)
		values["job_hit_p90_ms"] = percentile(b.hit, 90)
		for _, k := range []string{"job_miss_p50_ms", "job_miss_p90_ms"} {
			samples[k] = len(b.miss)
		}
		for _, k := range []string{"job_hit_p50_ms", "job_hit_p90_ms"} {
			samples[k] = len(b.hit)
		}
	}
	out := resultOut{
		Correct:   b.failed == 0 && len(b.broken) == 0,
		Attempted: b.attempted,
		Failed:    b.failed + len(b.broken),
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		n := ""
		if c, ok := samples[d.name]; ok {
			n = fmt.Sprintf("n=%d", c)
			if strings.HasPrefix(d.name, "job_") {
				n += fmt.Sprintf(" (samples support up to p%g)", highestTail(c))
			}
		}
		fmt.Printf("%-28s %16.6g %-6s %s\n", d.name, v, d.unit, n)
	}
	fmt.Printf("workload=%s seed=%d trace=%v nproc=%d GOMAXPROCS=%d go=%s reps=%d raw_wall_s=%.4g steal=%.3f attempted=%d failed=%d\n",
		b.workload, b.seed, traced, b.nproc, runtime.GOMAXPROCS(0), runtime.Version(),
		len(b.wall), median(b.rawWall), median(b.steal), out.Attempted, out.Failed)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// maxRSSMB is the process's peak resident set so far, in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timed runs fn as one repetition's measured work. Untraced, it records
// wall time (scaled for steal, see steal.go), host bytes allocated and the
// peak RSS so far; traced, it profiles the CPU and records the profile's
// layer attribution instead.
func (b *bench) timed(traced bool, fn func() error) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stop := func() {}
	if traced {
		var err error
		if stop, err = startProfile(b); err != nil {
			return err
		}
	}
	iv := startInterval()
	err := fn()
	d, f := iv.end()
	stop()
	runtime.ReadMemStats(&m1)
	if traced {
		b.tracedWall = unshared(d, f)
	} else {
		b.wall = append(b.wall, unshared(d, f))
		b.rawWall = append(b.rawWall, d.Seconds())
		b.steal = append(b.steal, f)
		b.allocMB = append(b.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		b.peakRSSMB = maxRSSMB()
	}
	return err
}

// reportCounts sums the simulated-event counters over a report's attached
// run telemetry: single-core runs name them cpu.uops, clusters
// core<i>.cpu.uops.
func reportCounts(report []byte) (uops, calls, l1dMisses float64, err error) {
	var doc struct {
		Runs []struct {
			Metrics map[string]json.RawMessage `json:"metrics"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(report, &doc); err != nil {
		return 0, 0, 0, fmt.Errorf("decode report: %w", err)
	}
	for _, r := range doc.Runs {
		for k, raw := range r.Metrics {
			base := k
			if strings.HasPrefix(k, "core") {
				if _, rest, ok := strings.Cut(k, "."); ok {
					base = rest
				}
			}
			var v float64
			switch base {
			case "cpu.uops", "cpu.calls", "l1d.misses":
				if err := json.Unmarshal(raw, &v); err != nil {
					return 0, 0, 0, fmt.Errorf("decode %s: %w", k, err)
				}
			}
			switch base {
			case "cpu.uops":
				uops += v
			case "cpu.calls":
				calls += v
			case "l1d.misses":
				l1dMisses += v
			}
		}
	}
	return uops, calls, l1dMisses, nil
}

// spanMetrics derives the simsvc span medians from the miss samples: queue
// wait, simulation, the finishing tail (encode and cache write), and the
// transport time the client saw beyond the server's span.
func (b *bench) spanMetrics(values map[string]float64) {
	var queue, run, finish, transport []float64
	for _, s := range b.missSpans {
		queue = append(queue, ms(s.queueWait()))
		run = append(run, ms(s.run))
		finish = append(finish, ms(s.finishTail()))
		transport = append(transport, ms(s.transport()))
	}
	if len(queue) == 0 {
		return
	}
	values["simsvc.queue_wait_ms_p50"] = median(queue)
	values["simsvc.run_ms_p50"] = median(run)
	values["simsvc.finish_ms_p50"] = median(finish)
	values["simsvc.http_ms_p50"] = median(transport)
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
