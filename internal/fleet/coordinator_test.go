package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mallacc/internal/simsvc"
)

// testFleet is three real simsvc nodes behind their HTTP handlers plus a
// coordinator fronting them.
type testFleet struct {
	nodes    []Node
	services map[string]*simsvc.Service
	servers  map[string]*httptest.Server
	coord    *Coordinator
	ts       *httptest.Server
}

func startFleet(t *testing.T, names ...string) *testFleet {
	t.Helper()
	return startFleetWith(t, simsvc.Config{Workers: 1}, names...)
}

// startFleetWith is startFleet with every node built from cfg.
func startFleetWith(t *testing.T, cfg simsvc.Config, names ...string) *testFleet {
	t.Helper()
	f := &testFleet{
		services: map[string]*simsvc.Service{},
		servers:  map[string]*httptest.Server{},
	}
	for _, name := range names {
		svc, err := simsvc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(srv.Close)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			svc.Drain(ctx)
		})
		f.services[name] = svc
		f.servers[name] = srv
		f.nodes = append(f.nodes, Node{Name: name, URL: srv.URL})
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Nodes:      f.nodes,
		ProbeEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	f.coord = coord
	f.ts = httptest.NewServer(coord.Handler())
	t.Cleanup(f.ts.Close)
	return f
}

// coordJob is the coordinator's job document.
type coordJob struct {
	simsvc.JobStatus
	Node string `json:"node"`
}

func (f *testFleet) post(t *testing.T, body string) (*http.Response, coordJob) {
	t.Helper()
	resp, err := http.Post(f.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	var st coordJob
	json.Unmarshal(b, &st)
	return resp, st
}

func (f *testFleet) await(t *testing.T, id string) coordJob {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(f.ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st coordJob
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("bad job document: %v (%s)", err, b)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// referenceReport runs the spec on a standalone single-node service and
// returns the finished job's report.
func referenceReport(t *testing.T, body string) json.RawMessage {
	t.Helper()
	svc, err := simsvc.New(simsvc.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Drain(ctx)
	}()
	spec, err := simsvc.DecodeSpec([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err = svc.Await(ctx, st.ID)
	if err != nil || st.State != simsvc.StateDone {
		t.Fatalf("reference job: %v (%+v)", err, st)
	}
	return st.Report
}

func specKey(t *testing.T, body string) string {
	t.Helper()
	spec, err := simsvc.DecodeSpec([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	return c.Key()
}

func compactEqual(t *testing.T, a, b json.RawMessage) bool {
	t.Helper()
	var ca, cb bytes.Buffer
	if err := json.Compact(&ca, a); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&cb, b); err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// TestCoordinatorRoutesToOwnerAndRelays pushes a job through the
// coordinator and checks it lands on the ring owner, finishes, and returns
// a report byte-identical to a single-node run of the same spec.
func TestCoordinatorRoutesToOwnerAndRelays(t *testing.T) {
	f := startFleet(t, "n1", "n2", "n3")
	body := `{"workload":"ubench.tp_small","calls":2000,"seed":21}`
	owner := f.coord.mem.Ring().Lookup(specKey(t, body))

	resp, st := f.post(t, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if st.Node != owner {
		t.Errorf("job routed to %s, ring owner is %s", st.Node, owner)
	}
	if node, _, ok := SplitJobID(st.ID); !ok || node != st.Node {
		t.Errorf("job id %q does not carry node prefix %q", st.ID, st.Node)
	}

	final := f.await(t, st.ID)
	if final.State != simsvc.StateDone {
		t.Fatalf("final state %s: %s", final.State, final.Error)
	}
	if !compactEqual(t, final.Report, referenceReport(t, body)) {
		t.Error("fleet report differs from single-node report")
	}

	// Resubmission: answered 200 from the owner's cache.
	resp2, st2 := f.post(t, body)
	if resp2.StatusCode != http.StatusOK || !st2.Cached || st2.Node != owner {
		t.Errorf("resubmit: status=%d cached=%v node=%s, want 200/true/%s",
			resp2.StatusCode, st2.Cached, st2.Node, owner)
	}
}

// TestCoordinatorFailover kills the owning node and checks the job fails
// over to the next ring candidate with an identical recomputed report.
// A slow-probing coordinator makes the proxy-failure path deterministic:
// its view still says the owner is healthy, so the hop must fail live.
func TestCoordinatorFailover(t *testing.T) {
	f := startFleet(t, "n1", "n2", "n3")
	slow, err := NewCoordinator(CoordinatorConfig{Nodes: f.nodes, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(slow.Close)
	sts := httptest.NewServer(slow.Handler())
	t.Cleanup(sts.Close)

	// Let the startup probe finish while every node is alive; after it the
	// slow coordinator's view is frozen healthy for an hour.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := slow.Healthz()
		probed := h.Live == 3
		for _, n := range h.Nodes {
			if n.ProbeAgeSeconds < 0 {
				probed = false
			}
		}
		if probed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("startup probe never completed: %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}

	body := `{"workload":"ubench.tp_small","calls":2000,"seed":22}`
	key := specKey(t, body)
	owner := slow.mem.Ring().Lookup(key)
	f.servers[owner].Close()

	resp, err := http.Post(sts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st coordJob
	json.Unmarshal(b, &st)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d (%s)", resp.StatusCode, b)
	}
	if st.Node == owner {
		t.Fatalf("job routed to the dead owner %s", owner)
	}
	want := slow.mem.Ring().Candidates(key, 2)[1]
	if st.Node != want {
		t.Errorf("job failed over to %s, want next candidate %s", st.Node, want)
	}
	if slow.failovers.Load() == 0 {
		t.Error("failover counter did not move")
	}
	final := f.await(t, st.ID) // the fast coordinator can poll it too
	if final.State != simsvc.StateDone {
		t.Fatalf("final state %s: %s", final.State, final.Error)
	}
	if !compactEqual(t, final.Report, referenceReport(t, body)) {
		t.Error("failover report differs from single-node report")
	}

	// The probing coordinator marks the node dead; healthz reflects it.
	deadline = time.Now().Add(5 * time.Second)
	for {
		h := f.coord.Healthz()
		if h.Live == 2 && h.OK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("membership never converged: %+v", h)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCoordinatorSuspectsFailedOwner: a failed proxy hop makes the owner
// suspect, which sorts it behind the healthy nodes, so the next job on its
// key starts on the successor even once the owner answers again. A probe
// success revives the owner, and its keys return to it.
func TestCoordinatorSuspectsFailedOwner(t *testing.T) {
	failing := map[string]*atomic.Bool{}
	var nodes []Node
	for _, name := range []string{"n1", "n2", "n3"} {
		svc, err := simsvc.New(simsvc.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		fail := &atomic.Bool{}
		h := svc.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if fail.Load() && r.Method == http.MethodPost {
				http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			svc.Drain(ctx)
		})
		failing[name] = fail
		nodes = append(nodes, Node{Name: name, URL: srv.URL})
	}
	// Probes run only when the test calls probeAll.
	c, err := NewCoordinator(CoordinatorConfig{Nodes: nodes, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	f := &testFleet{coord: c, ts: httptest.NewServer(c.Handler())}
	t.Cleanup(f.ts.Close)
	waitProbed(t, c)

	body := `{"workload":"ubench.tp_small","calls":2000,"seed":29}`
	cands := c.mem.Ring().Candidates(specKey(t, body), 2)
	owner, succ := cands[0], cands[1]
	submit := func() coordJob {
		t.Helper()
		_, st := f.post(t, body)
		return f.await(t, st.ID)
	}
	state := func(name string) string {
		m, _ := c.mem.Member(name)
		return m.State
	}

	failing[owner].Store(true)
	if st := submit(); st.Node != succ {
		t.Fatalf("job with a failing owner ran on %s, want successor %s", st.Node, succ)
	}
	if got := state(owner); got != StateMemberSuspect {
		t.Fatalf("owner is %s after its proxy hop failed, want suspect", got)
	}
	failing[owner].Store(false)
	if st := submit(); st.Node != succ {
		t.Errorf("next job on the suspect owner's key ran on %s, want successor %s", st.Node, succ)
	}

	c.probeAll()
	if got := state(owner); got != StateMemberHealthy {
		t.Fatalf("owner is %s after a probe success, want healthy", got)
	}
	if st := submit(); st.Node != owner {
		t.Errorf("job after the owner's revival ran on %s, want owner %s", st.Node, owner)
	}
}

// TestCoordinatorDrainRedirects drains the owner via the control endpoint
// and checks new work routes around it, then returns after undrain.
func TestCoordinatorDrainRedirects(t *testing.T) {
	f := startFleet(t, "n1", "n2", "n3")
	body := `{"workload":"ubench.tp_small","calls":2000,"seed":23}`
	owner := f.coord.mem.Ring().Lookup(specKey(t, body))

	resp, err := http.Post(f.ts.URL+"/v1/fleet/"+owner+"/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status = %d", resp.StatusCode)
	}

	_, st := f.post(t, body)
	if st.Node == owner {
		t.Errorf("job routed to drained node %s", owner)
	}
	if final := f.await(t, st.ID); final.State != simsvc.StateDone {
		t.Fatalf("final state %s: %s", final.State, final.Error)
	}

	resp, err = http.Post(f.ts.URL+"/v1/fleet/"+owner+"/undrain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	body2 := `{"workload":"ubench.tp_small","calls":2000,"seed":24}`
	owner2 := f.coord.mem.Ring().Lookup(specKey(t, body2))
	_, st2 := f.post(t, body2)
	if st2.Node != owner2 {
		t.Errorf("after undrain, job routed to %s, want owner %s", st2.Node, owner2)
	}

	// Unknown node: 404.
	resp, err = http.Post(f.ts.URL+"/v1/fleet/nope/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("drain unknown node status = %d, want 404", resp.StatusCode)
	}
}

// TestCoordinatorSSEFanout tails a job's event stream through the
// coordinator and expects the node's full replay, terminal event included.
func TestCoordinatorSSEFanout(t *testing.T) {
	f := startFleet(t, "n1", "n2")
	body := `{"workload":"ubench.tp_small","calls":2000,"seed":25}`
	_, st := f.post(t, body)
	f.await(t, st.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	// The job is finished, so the node replays the whole stream and closes.
	stream, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(stream, []byte("event: ")) || !bytes.Contains(stream, []byte("data: ")) {
		t.Fatalf("stream carries no SSE frames:\n%s", stream)
	}
}

// TestCoordinatorJobRoutingErrors covers the id-space edges: ids without a
// node prefix and ids naming unknown nodes are 404s with error documents.
func TestCoordinatorJobRoutingErrors(t *testing.T) {
	f := startFleet(t, "n1", "n2")
	for _, id := range []string{"j00000001", "ghost.j00000001"} {
		resp, err := http.Get(f.ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s status = %d, want 404", id, resp.StatusCode)
		}
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(b, &e) != nil || e.Error == "" {
			t.Errorf("GET %s: no error document (%s)", id, b)
		}
	}
	// Invalid specs are rejected at the coordinator without a node hop.
	resp, err := http.Post(f.ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"not-a-workload"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec status = %d, want 400", resp.StatusCode)
	}
}

// TestPeerFillAcrossNodes wires two real nodes with PeerFillers and checks
// a report computed on its owner is adopted by the other node over HTTP
// instead of recomputed.
func TestPeerFillAcrossNodes(t *testing.T) {
	// Build fillers first (services need the hook at construction), then
	// retarget them at the live server URLs.
	members := []Node{{Name: "a", URL: "http://invalid.invalid"}, {Name: "b", URL: "http://invalid.invalid"}}
	fillers := map[string]*PeerFiller{}
	services := map[string]*simsvc.Service{}
	servers := map[string]*httptest.Server{}
	for _, name := range []string{"a", "b"} {
		filler, err := NewPeerFiller(name, members, 0)
		if err != nil {
			t.Fatal(err)
		}
		fillers[name] = filler
		svc, err := simsvc.New(simsvc.Config{Workers: 1, PeerFill: filler.Fill})
		if err != nil {
			t.Fatal(err)
		}
		services[name] = svc
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(srv.Close)
		servers[name] = srv
	}
	live := []Node{{Name: "a", URL: servers["a"].URL}, {Name: "b", URL: servers["b"].URL}}
	fillers["a"].SetView(healthyView(live))
	fillers["b"].SetView(healthyView(live))

	body := `{"workload":"ubench.tp_small","calls":2000,"seed":26}`
	spec, err := simsvc.DecodeSpec([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	st, err := services["a"].Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err = services["a"].Await(ctx, st.ID)
	if err != nil || st.State != simsvc.StateDone {
		t.Fatalf("origin job: %v (%+v)", err, st)
	}

	// Node b misses locally, fills from a, and marks the job cached.
	st2, err := services["b"].Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != simsvc.StateDone {
		t.Fatalf("peer-filled job: cached=%v state=%s", st2.Cached, st2.State)
	}
	if !compactEqual(t, st2.Report, st.Report) {
		t.Error("peer-filled report differs from origin")
	}
	if got := fillers["b"].hits.Load(); got != 1 {
		t.Errorf("filler hits = %d, want 1", got)
	}
}

// TestCoordinatorExhaustion: with every node dead the coordinator sheds
// with 503 + Retry-After rather than hanging.
func TestCoordinatorExhaustion(t *testing.T) {
	f := startFleet(t, "n1", "n2")
	f.servers["n1"].Close()
	f.servers["n2"].Close()
	resp, _ := f.post(t, `{"workload":"ubench.tp_small","calls":2000,"seed":27}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if f.coord.exhausted.Load() == 0 {
		t.Error("exhausted counter did not move")
	}
}

// TestCoordinatorMetrics checks the fleet.* names exist in both formats.
func TestCoordinatorMetrics(t *testing.T) {
	f := startFleet(t, "n1", "n2")
	_, st := f.post(t, `{"workload":"ubench.tp_small","calls":2000,"seed":28}`)
	f.await(t, st.ID)

	resp, err := http.Get(f.ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	for _, name := range []string{
		"fleet.proxy.requests", "fleet.proxy.failovers", "fleet.proxy.redirects", "fleet.proxy.spills",
		"fleet.proxy.exhausted", "fleet.nodes.live", "fleet.nodes.total",
		"fleet.node.n1.ownership", "fleet.node.n2.queue_depth", "fleet.node.n1.state",
	} {
		if _, ok := snap[name]; !ok {
			t.Errorf("metric %s missing from snapshot", name)
		}
	}

	resp, err = http.Get(f.ts.URL + "/v1/metrics?format=openmetrics")
	if err != nil {
		t.Fatal(err)
	}
	om, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, frag := range []string{"mallacc_fleet_proxy_requests", "# EOF"} {
		if !bytes.Contains(om, []byte(frag)) {
			t.Errorf("openmetrics exposition missing %q", frag)
		}
	}
	if c := fmt.Sprint(f.coord.requests.Load()); c == "0" {
		t.Error("proxy request counter did not move")
	}
}
