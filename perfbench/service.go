package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"mallacc/internal/fleet"
	"mallacc/internal/simsvc"
	"mallacc/internal/telemetry"
)

// node is one simsvc instance served over loopback HTTP with its own
// disk cache, as mallacc-serve runs it.
type node struct {
	svc        *simsvc.Service
	stopServer func()
	dir        string
	client     httpClient
}

// listen reserves a loopback port; the URL is known before the service
// behind it exists, so fleet peers can be wired up front.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// serve runs an HTTP server on ln until the returned stop function,
// which closes it and waits for its Serve loop to return.
func serve(ln net.Listener, h http.Handler) (stop func()) {
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	return func() {
		srv.Close()
		<-done
	}
}

// startNode builds a node with `workers` workers and a fresh disk cache
// under the run's scratch directory.
func startNode(b *bench, name string, ln net.Listener, url string, workers int, peers []fleet.Node) (*node, error) {
	dir, err := os.MkdirTemp(b.dir, name+"-cache-")
	if err != nil {
		return nil, err
	}
	cfg := simsvc.Config{Workers: workers, CacheDir: dir}
	if peers != nil {
		filler, err := fleet.NewPeerFiller(name, peers, 0)
		if err != nil {
			return nil, err
		}
		cfg.PeerFill = filler.Fill
	}
	svc, err := simsvc.New(cfg)
	if err != nil {
		return nil, err
	}
	return &node{svc: svc, stopServer: serve(ln, svc.Handler()), dir: dir, client: newHTTPClient(url)}, nil
}

func (n *node) stop() {
	n.stopServer()
	n.svc.Drain(context.Background())
	n.client.c.CloseIdleConnections()
	os.RemoveAll(n.dir)
}

// cacheFiles counts the reports in the node's disk cache.
func (n *node) cacheFiles() int {
	m, _ := filepath.Glob(filepath.Join(n.dir, "*.json"))
	return len(m)
}

// warmUp pays lazy initialization through the workload's own entry point
// before timing: sixteen small jobs outside the grid's key space, enough
// simulation that set-up time is not dominated by scheduling jitter.
func warmUp(c jobClient, seed uint64, clients int) error {
	specs := runGrid(seed+1<<32, 1, 1000)[:16]
	for _, o := range runPass(c, specs, clients) {
		if o.err != nil {
			return fmt.Errorf("set-up job: %w", o.err)
		}
	}
	return nil
}

// serviceRep is one repetition of the service workload: a fresh node with
// nproc workers and an empty disk cache, the grid submitted cold over
// HTTP, then warmPasses warm passes of the same specs.
func serviceRep(b *bench, _ int, traced bool) error {
	iv := startInterval()
	ln, url, err := listen()
	if err != nil {
		return err
	}
	n, err := startNode(b, "svc", ln, url, b.nproc, nil)
	if err != nil {
		return err
	}
	defer n.stop()
	if err := warmUp(n.client, b.seed, b.nproc); err != nil {
		return err
	}
	if !traced {
		b.addSetup(iv)
	}
	return b.gridPasses(n.client, []*node{n}, traced, nil)
}

// gridPasses times the grid's cold pass and warm passes through client,
// checks them, and files samples and counts from nodes' metrics deltas.
// after, when set, runs untimed once the passes are checked.
func (b *bench) gridPasses(client jobClient, nodes []*node, traced bool, after func(cold []outcome) error) error {
	specs := runGrid(b.seed, gridSeeds, gridCalls)
	before, err := sumMetrics(nodes)
	if err != nil {
		return err
	}
	files := make([]int, len(nodes))
	for i, n := range nodes {
		files[i] = n.cacheFiles()
	}
	var cold []outcome
	var warm [][]outcome
	err = b.timed(traced, func() error {
		cold = runPass(client, specs, b.nproc)
		for i := 0; i < warmPasses; i++ {
			warm = append(warm, runPass(client, specs, b.nproc))
		}
		return nil
	})
	if err != nil {
		return err
	}
	misses, hits := b.collectPasses(cold, warm, func(i int) []byte { return cold[i].st.Report }, !traced)
	afterM, err := sumMetrics(nodes)
	if err != nil {
		return err
	}
	d := deltaMap(afterM, before)
	b.recordServiceCounts(d)
	written := 0
	for i, n := range nodes {
		written += n.cacheFiles() - files[i]
	}
	if uint64(written) != misses {
		b.fail("disk caches gained %d reports for %d cold misses", written, misses)
	}
	var uops, calls, l1d float64
	for _, o := range cold {
		u, c, l, err := reportCounts(o.st.Report)
		if err != nil {
			b.fail("cold job %s report: %v", o.st.ID, err)
			continue
		}
		uops, calls, l1d = uops+u, calls+c, l1d+l
	}
	b.uops = uops
	b.layer["sim.uops"], b.layer["sim.calls"], b.layer["sim.l1d_misses"] = uops, calls, l1d
	b.recordCounts(map[string]uint64{
		"cold_misses": misses,
		"warm_hits":   hits,
		"sim.uops":    uint64(uops),
	})
	if after != nil {
		return after(cold)
	}
	return nil
}

// sumMetrics adds up the nodes' /v1/metrics snapshots.
func sumMetrics(nodes []*node) (map[string]float64, error) {
	total := map[string]float64{}
	for _, n := range nodes {
		m, err := n.client.metrics()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}

// deltaMap subtracts before from after, name by name.
func deltaMap(after, before map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// snapshotMap flattens an in-process registry snapshot to counter and
// gauge values.
func snapshotMap(s telemetry.Snapshot) map[string]float64 {
	out := map[string]float64{}
	for _, m := range s.Metrics {
		if m.Kind != telemetry.KindHistogram {
			out[m.Name] = m.Value
		}
	}
	return out
}

// fleetRep is one repetition of the fleet workload: two nodes with one
// worker each and peer cache fill, behind a coordinator that routes by
// the job key's ring owner; the service workload's grid goes through the
// coordinator. After the timed passes every key is fetched again both
// through the coordinator and directly from its owner node, in alternating
// order, which checks byte identity and measures the proxy hop.
func fleetRep(b *bench, _ int, traced bool) error {
	iv := startInterval()
	var peers []fleet.Node
	var lns []net.Listener
	for _, name := range []string{"n1", "n2"} {
		ln, url, err := listen()
		if err != nil {
			return err
		}
		lns = append(lns, ln)
		peers = append(peers, fleet.Node{Name: name, URL: url})
	}
	var nodes []*node
	byName := map[string]*node{}
	for i, p := range peers {
		n, err := startNode(b, p.Name, lns[i], p.URL, 1, peers)
		if err != nil {
			return err
		}
		defer n.stop()
		nodes = append(nodes, n)
		byName[p.Name] = n
	}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{Nodes: peers})
	if err != nil {
		return err
	}
	defer coord.Close()
	cln, curl, err := listen()
	if err != nil {
		return err
	}
	defer serve(cln, coord.Handler())()
	client := newHTTPClient(curl)
	defer client.c.CloseIdleConnections()
	if err := warmUp(client, b.seed, b.nproc); err != nil {
		return err
	}
	if !traced {
		b.addSetup(iv)
	}
	before := snapshotMap(coord.Registry().Snapshot())
	return b.gridPasses(client, nodes, traced, func(cold []outcome) error {
		d := deltaMap(snapshotMap(coord.Registry().Snapshot()), before)
		b.layer["fleet.failovers"] = d["fleet.proxy.failovers"]
		b.layer["fleet.redirects"] = d["fleet.proxy.redirects"]
		share := map[string]float64{}
		var viaCoord, direct []float64
		for _, o := range cold {
			owner, _, ok := fleet.SplitJobID(o.st.ID)
			n := byName[owner]
			if !ok || n == nil {
				b.fail("cold job id %q names no node", o.st.ID)
				continue
			}
			share[owner]++
			// Alternate which path goes first so neither always finds
			// the connection pool or the caches warmer.
			paths := []jobClient{client, n.client}
			if len(viaCoord)%2 == 1 {
				paths[0], paths[1] = paths[1], paths[0]
			}
			var lat [2]time.Duration
			ok = true
			for j, c := range paths {
				t := time.Now()
				st, err := c.do(o.st.Spec)
				lat[j] = time.Since(t)
				b.attempted++
				switch {
				case err != nil || !st.Cached:
					b.fail("re-fetch of %s: cached %v, error %v", o.st.ID, st.Cached, err)
					ok = false
				case !bytes.Equal(st.Report, o.st.Report):
					b.fail("re-fetch of %s from node %s returned a different report", o.st.ID, owner)
					ok = false
				}
			}
			if !ok {
				continue
			}
			if len(viaCoord)%2 == 1 {
				lat[0], lat[1] = lat[1], lat[0]
			}
			viaCoord, direct = append(viaCoord, ms(lat[0])), append(direct, ms(lat[1]))
		}
		b.layer["fleet.proxy_hop_ms_p50"] = proxyHop(viaCoord, direct)
		for _, v := range share {
			b.layer["fleet.node_share_max"] = max(b.layer["fleet.node_share_max"], v/float64(len(cold)))
		}
		return nil
	})
}

// startProfile starts the CPU profile of a traced repetition; the
// returned stop function charges its samples to layers.
func startProfile(b *bench) (func(), error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		samples, err := decodeProfile(buf.Bytes())
		if err != nil {
			b.fail("%v", err)
			return
		}
		self, covered := attribute(samples)
		for l, s := range self {
			b.layer[l+".self_s"] = s
		}
		b.layer["layers.covered_pct"] = covered
		if covered < 90 {
			b.fail("named layers cover %.1f%% of CPU samples, want >= 90%%", covered)
		}
	}, nil
}
