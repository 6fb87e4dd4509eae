package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mallacc/internal/catalog"
	"mallacc/internal/harness"
	"mallacc/internal/multicore"
	"mallacc/internal/simsvc"
)

// experimentSpec is the job mallacc-bench submits for `-run <id> -metrics
// -seed <seed>` with its default flags, exactly as `make baseline` runs it.
func experimentSpec(id string, seed uint64) simsvc.JobSpec {
	return simsvc.JobSpec{
		Kind:       simsvc.KindExperiment,
		Experiment: id,
		Calls:      60000,
		Seeds:      6,
		Seed:       seed,
		Cores:      16,
		Metrics:    true,
	}
}

// warmUpSpecs are the set-up jobs that pay lazy initialization (uop slab
// pools, first heap growth) before the timed job, about a third of a
// second of simulation on a 2-core host: fig13 itself at a small call
// budget, and for designspace one 16-core cluster job per strategy (the
// experiment itself has a large fixed cost per cell). None shares a cache
// key with the timed job.
func warmUpSpecs(spec simsvc.JobSpec) []simsvc.JobSpec {
	if spec.Experiment != "designspace" {
		warm := spec
		warm.Calls = 2000
		return []simsvc.JobSpec{warm}
	}
	var specs []simsvc.JobSpec
	for _, s := range catalog.Strategies() {
		specs = append(specs, simsvc.JobSpec{
			Kind:     simsvc.KindCluster,
			Workload: "xapian.pages",
			Backend:  s.Backend,
			Variant:  s.Variant,
			Cores:    16,
			Calls:    16 * 200,
			Seed:     spec.Seed,
		})
	}
	return specs
}

// experimentRep runs one experiment job. Untraced, it goes through a
// fresh in-process simsvc, as mallacc-bench does. Traced, it calls the
// experiment directly with timing wrappers on ExpOptions.Submit and
// SubmitCluster around harness.Run and multicore.Run, which is the work
// simsvc's submitters do minus their memo table.
//
// After the timed job each untraced repetition runs its own slice of the
// latency probe (see probe), so the job latency samples are spread over
// the run like the repetitions are.
func experimentRep(id string) func(*bench, int, bool) error {
	return func(b *bench, rep int, traced bool) error {
		spec := experimentSpec(id, b.seed)
		if traced {
			return tracedExperiment(b, spec)
		}
		iv := startInterval()
		svc, err := simsvc.New(simsvc.Config{Workers: b.nproc})
		if err != nil {
			return err
		}
		defer svc.Drain(context.Background())
		for _, warm := range warmUpSpecs(spec) {
			st, err := (inprocClient{svc}).do(warm)
			if err == nil && st.State != simsvc.StateDone {
				err = errors.New(st.Error)
			}
			if err != nil {
				return fmt.Errorf("set-up job: %w", err)
			}
		}
		b.addSetup(iv)

		before := snapshotMap(svc.Registry().Snapshot())
		var st simsvc.JobStatus
		b.attempted++
		err = b.timed(false, func() error {
			var err error
			st, err = (inprocClient{svc}).do(spec)
			return err
		})
		if err != nil || st.State != simsvc.StateDone {
			b.fail("%s job: state %s, error %v %s", id, st.State, err, st.Error)
			return nil
		}
		delta := deltaMap(snapshotMap(svc.Registry().Snapshot()), before)
		b.recordServiceCounts(delta)
		cells := uint64(delta["simsvc.runcache.misses"])
		if err := b.checkExperiment(id, st.Report, cells); err != nil {
			return err
		}
		return b.probe(rep, id)
	}
}

// tracedExperiment is the traced repetition of an experiment workload.
func tracedExperiment(b *bench, spec simsvc.JobSpec) error {
	exp, ok := harness.ByID(spec.Experiment)
	if !ok {
		return fmt.Errorf("unknown experiment %q", spec.Experiment)
	}
	var runs, clusters spanLog
	var report []byte
	var wall float64 // unscaled, like the cell spans
	b.attempted++
	err := b.timed(true, func() error {
		t0 := time.Now()
		rep := exp.Run(harness.ExpOptions{
			Calls:   spec.Calls,
			Seeds:   spec.Seeds,
			Seed:    spec.Seed,
			Metrics: spec.Metrics,
			Cores:   spec.Cores,
			Submit: func(opt harness.Options) *harness.Result {
				defer runs.span(time.Now())
				return harness.Run(opt)
			},
			SubmitCluster: func(cfg multicore.Config) *multicore.Result {
				defer clusters.span(time.Now())
				return multicore.Run(cfg)
			},
		})
		wall = time.Since(t0).Seconds()
		var err error
		report, err = json.Marshal(rep)
		return err
	})
	if err != nil {
		return err
	}
	for prefix, l := range map[string]*spanLog{"harness": &runs, "multicore": &clusters} {
		b.layer[prefix+".cells"] = float64(len(l.d))
		if len(l.d) > 0 {
			b.layer[prefix+".cell_s_p50"] = median(l.d)
			b.layer[prefix+".cell_overlap"] = overlap(l.d, wall)
		}
	}
	return b.checkExperiment(spec.Experiment, report, uint64(len(runs.d)+len(clusters.d)))
}

// spanLog collects the durations of spans that may close concurrently.
type spanLog struct {
	mu sync.Mutex
	d  []float64
}

func (l *spanLog) span(start time.Time) {
	d := time.Since(start).Seconds()
	l.mu.Lock()
	l.d = append(l.d, d)
	l.mu.Unlock()
}

// pinned names the digest file holding each experiment's seed-1 report.
var pinned = map[string]string{
	"fig13":       "results/metrics/baseline.json",
	"designspace": "results/metrics/designspace.json",
}

// checkExperiment verifies an experiment report and records its counts:
// identical across repetitions, byte-identical to the pinned digest at
// seed 1, and (fig13) the paper's ordering at any seed.
func (b *bench) checkExperiment(id string, report []byte, cells uint64) error {
	uops, calls, l1d, err := reportCounts(report)
	if err != nil {
		b.fail("%s report: %v", id, err)
		return nil
	}
	b.uops = uops
	b.layer["sim.uops"], b.layer["sim.calls"], b.layer["sim.l1d_misses"] = uops, calls, l1d
	b.recordCounts(map[string]uint64{"cells": cells, "sim.uops": uint64(uops)})
	if b.ref == nil {
		b.ref = report
	} else if !bytes.Equal(b.ref, report) {
		b.fail("%s report differs between repetitions", id)
	}
	if b.seed == 1 {
		want, err := pinnedReport(filepath.Join(b.root, pinned[id]), id)
		if err != nil {
			return err
		}
		var got bytes.Buffer
		if err := json.Compact(&got, report); err != nil || !bytes.Equal(got.Bytes(), want) {
			b.fail("%s report at seed 1 differs from %s", id, pinned[id])
		}
	}
	if id == "fig13" {
		if err := checkFig13Rows(report); err != nil {
			b.fail("fig13: %v", err)
		}
	}
	return nil
}

// pinnedReport returns the compacted entry for experiment id in a
// mallacc-bench JSON document.
func pinnedReport(path, id string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pinned digest: %w", err)
	}
	var doc struct {
		Experiments []json.RawMessage `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("pinned digest %s: %w", path, err)
	}
	for _, e := range doc.Experiments {
		var head struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(e, &head) == nil && head.ID == id {
			var out bytes.Buffer
			if err := json.Compact(&out, e); err != nil {
				return nil, err
			}
			return out.Bytes(), nil
		}
	}
	return nil, fmt.Errorf("pinned digest %s has no %s entry", path, id)
}

// checkFig13Rows asserts the paper's qualitative result on every
// workload row: Mallacc improves on the baseline, stays under the limit
// study, and helps masstree.same least.
func checkFig13Rows(report []byte) error {
	var doc struct {
		Tables []struct {
			Rows [][]json.RawMessage `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(report, &doc); err != nil {
		return err
	}
	if len(doc.Tables) == 0 {
		return errors.New("no table")
	}
	lowest, lowestName := 0.0, ""
	rows := 0
	for _, row := range doc.Tables[0].Rows {
		var name string
		var mallacc, limit float64
		if len(row) < 3 || json.Unmarshal(row[0], &name) != nil ||
			json.Unmarshal(row[1], &mallacc) != nil || json.Unmarshal(row[2], &limit) != nil {
			return fmt.Errorf("malformed row %s", row)
		}
		if name == "Geomean" {
			continue
		}
		rows++
		if !(0 < mallacc && mallacc < limit) {
			return fmt.Errorf("%s: want 0 < mallacc (%v) < limit (%v)", name, mallacc, limit)
		}
		if lowestName == "" || mallacc < lowest {
			lowest, lowestName = mallacc, name
		}
	}
	if rows != 8 {
		return fmt.Errorf("%d workload rows, want 8", rows)
	}
	if lowestName != "masstree.same" {
		return fmt.Errorf("lowest Mallacc gain is %s, want masstree.same", lowestName)
	}
	return nil
}

// inprocClient runs jobs on an in-process service: Submit, then Await
// unless the submission was already a cache hit.
type inprocClient struct{ svc *simsvc.Service }

func (c inprocClient) do(spec simsvc.JobSpec) (simsvc.JobStatus, error) {
	st, err := c.svc.Submit(spec)
	if err != nil || st.State.Terminal() {
		return st, err
	}
	return c.svc.Await(context.Background(), st.ID)
}

// probe measures job latency for the experiment workloads, whose own job
// stream is one experiment per repetition. Each repetition starts a node
// like the service workload's and sends it a whole grid of distinct small
// jobs over loopback HTTP from nproc clients, cold (misses) and then
// warmPasses times warm (hits): the service grid's run jobs with three
// spec seeds for fig13 (72 jobs), two-core cluster jobs over the
// design-space strategies with two spec seeds for designspace (80 jobs).
// Whole grids keep the mix of job sizes the same for every seed; each
// repetition probes its own spec seeds. The probe is outside wall_s and
// the traced profile.
func (b *bench) probe(rep int, experiment string) error {
	seed := b.seed + uint64(rep)<<40
	specs := runGrid(seed, 3, gridCalls)
	if experiment == "designspace" {
		specs = clusterGrid(seed, 2)
	}
	ln, url, err := listen()
	if err != nil {
		return err
	}
	n, err := startNode(b, "probe", ln, url, b.nproc, nil)
	if err != nil {
		return err
	}
	defer n.stop()
	runtime.GC()
	cold := runPass(n.client, specs, b.nproc)
	var warm [][]outcome
	for i := 0; i < warmPasses; i++ {
		warm = append(warm, runPass(n.client, specs, b.nproc))
	}
	misses, hits := b.collectPasses(cold, warm, func(i int) []byte { return cold[i].st.Report }, true)
	b.recordCounts(map[string]uint64{"probe.cold_misses": misses, "probe.warm_hits": hits})
	return nil
}
