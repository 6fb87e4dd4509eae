package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mallacc/internal/catalog"
	"mallacc/internal/simsvc"
	"mallacc/internal/workload"
)

// Grid sizes. A pass of the 120-job service grid alone leaves twelve
// samples beyond its p90.
const (
	gridSeeds  = 5    // spec seeds per (workload, variant) in the service grid
	gridCalls  = 3000 // calls of the first macro workload's jobs
	warmPasses = 4
)

// runGrid is a `mallacc-ctl sweep`-style grid of distinct run jobs: the
// eight macro workloads × {baseline, mallacc, limit} × nseeds spec seeds.
// Call budgets are fixed per workload (base, 4/3 base, ... up to 10k calls
// at the service size) and only the spec seeds and job order follow the
// seed, so every seed asks for the same amount of simulation.
func runGrid(seed uint64, nseeds, base int) []simsvc.JobSpec {
	var specs []simsvc.JobSpec
	for i, w := range workload.Macro() {
		for _, v := range []string{catalog.VariantBaseline, catalog.VariantMallacc, catalog.VariantLimit} {
			for k := 0; k < nseeds; k++ {
				specs = append(specs, simsvc.JobSpec{
					Kind:     simsvc.KindRun,
					Workload: w.Name(),
					Variant:  v,
					Calls:    base + i*base/3,
					Seed:     seed*1000 + uint64(k) + 1,
					Metrics:  true,
				})
			}
		}
	}
	return shuffle(seed, specs)
}

// clusterGrid is the design-space probe: two-core cluster jobs for every
// strategy on every macro workload, nseeds spec seeds each.
func clusterGrid(seed uint64, nseeds int) []simsvc.JobSpec {
	var specs []simsvc.JobSpec
	for i, w := range workload.Macro() {
		for _, s := range catalog.Strategies() {
			for k := 0; k < nseeds; k++ {
				specs = append(specs, simsvc.JobSpec{
					Kind:     simsvc.KindCluster,
					Workload: w.Name(),
					Backend:  s.Backend,
					Variant:  s.Variant,
					Cores:    2,
					Calls:    1000 + 250*i,
					Seed:     seed*1000 + uint64(k) + 1,
					Metrics:  true,
				})
			}
		}
	}
	return shuffle(seed, specs)
}

func shuffle(seed uint64, specs []simsvc.JobSpec) []simsvc.JobSpec {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	r.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// jobClient submits a spec and returns the job's terminal status.
type jobClient interface {
	do(spec simsvc.JobSpec) (simsvc.JobStatus, error)
}

// outcome is one job as the client saw it, with the steal share of the
// pass it ran in.
type outcome struct {
	st      simsvc.JobStatus
	err     error
	latency time.Duration
	steal   float64
}

// latencyMS is the job's latency scaled for steal (see steal.go), in ms.
func (o outcome) latencyMS() float64 { return 1000 * unshared(o.latency, o.steal) }

// runPass submits every spec once from a closed loop of `clients`
// concurrent clients: each sends its next job only after the previous
// one finished. Outcomes are returned in spec order.
func runPass(c jobClient, specs []simsvc.JobSpec, clients int) []outcome {
	iv := startInterval()
	out := make([]outcome, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				t0 := time.Now()
				st, err := c.do(specs[i])
				out[i] = outcome{st: st, err: err, latency: time.Since(t0)}
			}
		}()
	}
	wg.Wait()
	_, f := iv.end()
	for i := range out {
		out[i].steal = f
	}
	return out
}

// collectPasses checks a cold pass and warm passes and, when keep is set,
// files their latencies as miss and hit samples. Every cold job must have
// run (not cached); every warm job must be a cache hit whose report is
// byte-identical to want(i), the report of its spec's cold run. It returns
// the miss and hit counts.
func (b *bench) collectPasses(cold []outcome, warm [][]outcome, want func(i int) []byte, keep bool) (misses, hits uint64) {
	for _, o := range cold {
		b.attempted++
		switch {
		case o.err != nil:
			b.fail("cold job: %v", o.err)
		case o.st.State != simsvc.StateDone:
			b.fail("cold job %s: state %s: %s", o.st.ID, o.st.State, o.st.Error)
		case o.st.Cached:
			b.fail("cold job %s served from cache", o.st.ID)
		case o.st.StartedAt == nil || o.st.FinishedAt == nil:
			b.fail("cold job %s has no start/finish time", o.st.ID)
		default:
			misses++
			if keep {
				b.miss = append(b.miss, o.latencyMS())
				b.missSpans = append(b.missSpans, jobSpan{
					created:  o.st.CreatedAt,
					started:  *o.st.StartedAt,
					finished: *o.st.FinishedAt,
					run:      time.Duration(o.st.ElapsedSeconds * float64(time.Second)),
					client:   o.latency,
				})
			}
		}
	}
	for _, pass := range warm {
		for i, o := range pass {
			b.attempted++
			switch {
			case o.err != nil:
				b.fail("warm job: %v", o.err)
			case o.st.State != simsvc.StateDone || !o.st.Cached:
				b.fail("warm job %s not a cache hit (state %s, cached %v)", o.st.ID, o.st.State, o.st.Cached)
			case !bytes.Equal(o.st.Report, want(i)):
				b.fail("warm job %s report differs from its cold run", o.st.ID)
			default:
				hits++
				if keep {
					b.hit = append(b.hit, o.latencyMS())
				}
			}
		}
	}
	return misses, hits
}

// recordServiceCounts files the simsvc counts of one repetition (a
// registry delta summed over the workload's nodes) as per-layer metrics
// and exact-repeat counts.
func (b *bench) recordServiceCounts(d map[string]float64) {
	hits, disk := d["simsvc.cache.hits"], d["simsvc.cache.disk.hits"]
	// Every job that completed without a cache hit stored its report.
	writes := d["simsvc.jobs.completed"] - hits
	b.layer["simsvc.cache.mem_hits"] = hits - disk
	b.layer["simsvc.cache.disk_hits"] = disk
	b.layer["simsvc.cache.writes"] = writes
	b.layer["simsvc.runcache.misses"] = d["simsvc.runcache.misses"]
	b.recordCounts(map[string]uint64{
		"simsvc.runcache.misses": uint64(d["simsvc.runcache.misses"]),
		"simsvc.cache.writes":    uint64(writes),
	})
}

// httpClient runs jobs over the /v1/jobs API of a node or coordinator: a
// hit comes back done from the POST; a miss is waited for on its
// Server-Sent Events stream and then fetched with its report.
type httpClient struct {
	base string
	c    *http.Client
}

func newHTTPClient(base string) httpClient {
	return httpClient{base: base, c: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true},
	}}
}

func (h httpClient) do(spec simsvc.JobSpec) (simsvc.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return simsvc.JobStatus{}, err
	}
	resp, err := h.c.Post(h.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return simsvc.JobStatus{}, err
	}
	st, err := decodeStatus(resp)
	if err != nil || st.State.Terminal() {
		return st, err
	}
	if err := h.awaitEvents(st.ID); err != nil {
		return st, err
	}
	resp, err = h.c.Get(h.base + "/v1/jobs/" + st.ID)
	if err != nil {
		return st, err
	}
	return decodeStatus(resp)
}

// decodeStatus reads a job document; any non-2xx answer (400, 429 queue
// full, 503 draining or breaker open) is an error.
func decodeStatus(resp *http.Response) (simsvc.JobStatus, error) {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return simsvc.JobStatus{}, err
	}
	if resp.StatusCode/100 != 2 {
		return simsvc.JobStatus{}, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	var st simsvc.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, fmt.Errorf("decode job: %w", err)
	}
	return st, nil
}

// awaitEvents tails a job's event stream until its terminal event.
func (h httpClient) awaitEvents(id string) error {
	resp, err := h.c.Get(h.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		ev, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		switch ev {
		case simsvc.EventDone:
			return nil
		case simsvc.EventFailed, simsvc.EventCanceled:
			return fmt.Errorf("job %s %s", id, ev)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events %s: stream ended without a terminal event", id)
}

// metrics fetches a node's telemetry snapshot from GET /v1/metrics (the
// compact JSON map form; histograms are skipped).
func (h httpClient) metrics() (map[string]float64, error) {
	resp, err := h.c.Get(h.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode metrics: %w", err)
	}
	out := map[string]float64{}
	for k, raw := range doc {
		var v float64
		if json.Unmarshal(raw, &v) == nil {
			out[k] = v
		}
	}
	return out, nil
}
