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

// waitFor polls cond until true or the deadline, failing the test after.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitProbed waits until the coordinator's startup probe has reached
// every node.
func waitProbed(t *testing.T, c *Coordinator) {
	t.Helper()
	waitFor(t, "startup probe", 5*time.Second, func() bool {
		for _, n := range c.Healthz().Nodes {
			if n.ProbeAgeSeconds < 0 {
				return false
			}
		}
		return true
	})
}

// TestProbeRejectsMalformedHealthz is the regression test for the probe
// decode bug: a node answering 200 with garbage, half a document, JSON of
// the wrong shape, or valid JSON followed by trailing garbage must be
// treated as DOWN, exactly like a refused connection. Before the fix,
// json.Decoder.Decode happily accepted "null", "{}", and a valid prefix
// with trailing bytes, and the decode error was never checked — a
// half-crashed process kept receiving traffic on the strength of a lie.
// A well-formed document from a node that reports itself draining fails
// the probe too. A failed probe makes the node suspect.
func TestProbeRejectsMalformedHealthz(t *testing.T) {
	bodies := map[string]string{
		"garbage":        `it's not even json`,
		"truncated":      `{"workers":2,"bu`,
		"null":           `null`,
		"empty-object":   `{}`,
		"trailing-junk":  `{"workers":2}garbage`,
		"wrong-shape":    `{"workers":0}`,
		"missing-fields": `{"busy":0,"queue_depth":0}`,
		"draining":       `{"workers":2,"draining":true}`,
	}
	var nodes []Node
	order := []string{"garbage", "truncated", "null", "empty-object", "trailing-junk", "wrong-shape", "missing-fields", "draining"}
	for i, name := range order {
		body := bodies[name]
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, body)
		}))
		t.Cleanup(srv.Close)
		nodes = append(nodes, Node{Name: string(rune('a' + i)), URL: srv.URL})
	}
	// One honest node proves the validator isn't just rejecting everything.
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"workers":2,"busy":0,"queue_depth":0,"retrying":0,"draining":false}`)
	}))
	t.Cleanup(good.Close)
	nodes = append(nodes, Node{Name: "honest", URL: good.URL})

	c, err := NewCoordinator(CoordinatorConfig{Nodes: nodes, ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	waitProbed(t, c)
	for _, n := range c.Healthz().Nodes {
		if n.Name == "honest" {
			if n.State != StateMemberHealthy {
				t.Errorf("honest node is %s: %s", n.State, n.LastError)
			}
			continue
		}
		if n.State != StateMemberSuspect {
			t.Errorf("node %s with a rejected healthz is %s, want suspect", n.Name, n.State)
		}
		if n.LastError == "" {
			t.Errorf("node %s has no probe error recorded", n.Name)
		}
	}
	if c.probeErrs.Load() < uint64(len(order)) {
		t.Errorf("probe failure counter = %d, want >= %d", c.probeErrs.Load(), len(order))
	}
}

// TestJobFailuresKeepNodeHealthy: a failed job is a property of its spec,
// not of the node that ran it. A node whose jobs all time out stays
// healthy through later probes and keeps taking work, and a submission
// naming a trace the node does not hold is relayed to the client as 400
// without making the owner suspect.
func TestJobFailuresKeepNodeHealthy(t *testing.T) {
	f := startFleetWith(t, simsvc.Config{Workers: 1, JobTimeout: 5 * time.Millisecond}, "n1")
	waitProbed(t, f.coord)
	state := func() string { return f.coord.Healthz().Nodes[0].State }

	for i := 0; i < 6; i++ {
		resp, st := f.post(t, fmt.Sprintf(`{"workload":"ubench.gauss","calls":20000,"seed":%d}`, 100+i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: status %d, want 202", i, resp.StatusCode)
		}
		if got := f.await(t, st.ID); got.State != simsvc.StateFailed {
			t.Fatalf("job %d: state %s, want failed by timeout", i, got.State)
		}
	}
	if n := f.services["n1"].Registry().Snapshot().Value("simsvc.jobs.timeouts"); n < 6 {
		t.Fatalf("node timeouts = %v, want >= 6", n)
	}
	probes := f.coord.probes.Load()
	waitFor(t, "two probe rounds", 5*time.Second, func() bool { return f.coord.probes.Load() >= probes+2 })
	if s := state(); s != StateMemberHealthy {
		t.Fatalf("node is %s after its jobs timed out, want healthy", s)
	}
	resp, st := f.post(t, `{"workload":"ubench.gauss","calls":20000,"seed":200}`)
	if resp.StatusCode != http.StatusAccepted || st.Node != "n1" {
		t.Fatalf("next job: status %d node %q, want 202 on n1", resp.StatusCode, st.Node)
	}

	resp, _ = f.post(t, `{"workload":"trace:`+strings.Repeat("ab", 32)+`"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing-trace submission: status %d, want 400", resp.StatusCode)
	}
	if s := state(); s != StateMemberHealthy {
		t.Fatalf("node is %s after relaying a 400, want healthy", s)
	}
}

// postJSON posts a document and decodes the response.
func postJSON(t *testing.T, url string, in any, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decode %s response: %v (%s)", url, err, body)
		}
	}
	return resp
}

// TestFleetJoinLeaveHTTP drives the membership endpoints directly: an
// empty coordinator admits a joiner and serves it the view; a re-announce
// changes nothing and still carries the full view, a draining member stays
// draining; the heartbeat endpoint is gone; leave takes the member off the
// ring and a later join admits it again; /v1/healthz reflects it all.
func TestFleetJoinLeaveHTTP(t *testing.T) {
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"workers":1}`)
	}))
	t.Cleanup(node.Close)

	c, err := NewCoordinator(CoordinatorConfig{ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	// Empty fleet: healthz reports zero members, not an error.
	h := c.Healthz()
	if h.Total != 0 || h.OK {
		t.Fatalf("empty fleet healthz = %+v", h)
	}

	var jr joinResponse
	resp := postJSON(t, ts.URL+"/v1/fleet/join", joinRequest{Name: "n1", URL: node.URL}, &jr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join status = %d", resp.StatusCode)
	}
	if jr.View == nil || len(jr.View.Members) != 1 || jr.View.Members[0].Name != "n1" {
		t.Fatalf("join response view = %+v", jr.View)
	}
	if c.mem.Ring() == nil || c.mem.Ring().Lookup("anything") != "n1" {
		t.Fatal("joined node does not own the ring")
	}
	if _, err := c.mem.Join(Node{Name: "n2", URL: node.URL}); err != nil {
		t.Fatal(err)
	}

	// Drain n1, then let it re-announce: still draining, nothing bumped,
	// and the reply is the full view at the unchanged epoch.
	resp = postJSON(t, ts.URL+"/v1/fleet/n1/drain", struct{}{}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status = %d", resp.StatusCode)
	}
	epoch := c.mem.Epoch()
	var rj joinResponse
	postJSON(t, ts.URL+"/v1/fleet/join", joinRequest{Name: "n1", URL: node.URL}, &rj)
	if rj.Epoch != epoch || c.mem.Epoch() != epoch {
		t.Errorf("re-announce bumped the epoch: %d -> %d (reply %d)", epoch, c.mem.Epoch(), rj.Epoch)
	}
	if rj.View == nil || len(rj.View.Members) != 2 {
		t.Fatalf("re-announce reply is not the full view: %+v", rj.View)
	}
	if m, _ := c.mem.Member("n1"); !m.Draining || m.State != StateMemberHealthy {
		t.Errorf("re-announce changed the draining member: %+v", m)
	}
	if joins, _, _, _, _, _ := c.mem.Counts(); joins != 2 {
		t.Errorf("joins counter = %d after a re-announce, want 2", joins)
	}

	// Liveness comes from probes and proxy outcomes only.
	resp = postJSON(t, ts.URL+"/v1/fleet/heartbeat", joinRequest{Name: "n1"}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("heartbeat endpoint status = %d, want 404 (no such route)", resp.StatusCode)
	}

	// Malformed joins are rejected.
	resp = postJSON(t, ts.URL+"/v1/fleet/join", joinRequest{Name: "Bad.Name", URL: node.URL}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad join status = %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/fleet/leave", joinRequest{Name: "n1"}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leave status = %d", resp.StatusCode)
	}
	if nodes := c.mem.Ring().nodes; len(nodes) != 1 || nodes[0] != "n2" {
		t.Fatalf("ring after n1 left = %v, want [n2]", nodes)
	}
	if h := c.Healthz(); h.Total != 1 || h.Live != 1 {
		t.Errorf("healthz after leave: total=%d live=%d, want 1/1", h.Total, h.Live)
	}
	// A departed name joining again is a fresh admission.
	postJSON(t, ts.URL+"/v1/fleet/join", joinRequest{Name: "n1", URL: node.URL}, &rj)
	if m, _ := c.mem.Member("n1"); m.State != StateMemberHealthy || m.Draining {
		t.Errorf("re-join after leave = %+v, want healthy and not draining", m)
	}
	if rj.Epoch <= epoch || len(c.mem.Ring().nodes) != 2 {
		t.Errorf("re-join after leave: epoch %d (was %d), ring %v", rj.Epoch, epoch, c.mem.Ring().nodes)
	}
}

// TestAgentReannouncesToRestartedCoordinator runs a real Agent against a
// live coordinator: it must appear as a healthy member and keep
// re-announcing without moving the epoch; when the coordinator is replaced
// by a fresh process behind the same URL (a cold restart), the agent's
// next round teaches it the node; Close then Leave departs it.
func TestAgentReannouncesToRestartedCoordinator(t *testing.T) {
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"workers":1}`)
	}))
	t.Cleanup(node.Close)
	newCoord := func() *Coordinator {
		c, err := NewCoordinator(CoordinatorConfig{ProbeEvery: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	var current atomic.Pointer[http.Handler]
	serve := func(c *Coordinator) {
		h := c.Handler()
		current.Store(&h)
	}
	c := newCoord()
	serve(c)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*current.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	var views atomic.Uint64
	agent, err := NewAgent(AgentConfig{
		Self:           Node{Name: "dyn1", URL: node.URL},
		Coordinators:   []string{ts.URL},
		HeartbeatEvery: 20 * time.Millisecond,
		OnView:         func(v View) { views.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	agent.Start()
	t.Cleanup(agent.Close)

	waitFor(t, "agent join", 5*time.Second, func() bool {
		m, ok := c.mem.Member("dyn1")
		return ok && m.State == StateMemberHealthy
	})
	if agent.Epoch() == 0 || views.Load() == 0 {
		t.Fatalf("agent never adopted a view (epoch %d, views %d)", agent.Epoch(), views.Load())
	}
	epoch := c.mem.Epoch()
	j0 := agent.joins.Load()
	waitFor(t, "re-announces", 5*time.Second, func() bool { return agent.joins.Load() > j0+3 })
	if c.mem.Epoch() != epoch {
		t.Errorf("re-announces moved the epoch: %d -> %d", epoch, c.mem.Epoch())
	}
	if joins, _, _, _, _, _ := c.mem.Counts(); joins != 1 {
		t.Errorf("coordinator counted %d joins for one node, want 1", joins)
	}

	// Cold restart: a fresh coordinator with an empty table takes over the
	// URL. The agent's next round (one in flight to the old process at
	// most) must teach it the node.
	fresh := newCoord()
	j1 := agent.joins.Load()
	serve(fresh)
	var learnedAt uint64
	waitFor(t, "fresh coordinator to learn the node", 5*time.Second, func() bool {
		m, ok := fresh.mem.Member("dyn1")
		learnedAt = agent.joins.Load()
		return ok && m.State == StateMemberHealthy
	})
	if learnedAt > j1+2 {
		t.Errorf("fresh coordinator learned the node only after %d more rounds, want at most 2", learnedAt-j1)
	}

	// Close waits for the loop to exit, so nothing re-announces the node
	// after Leave.
	agent.Close()
	agent.Leave()
	if m, _ := fresh.mem.Member("dyn1"); m.State != StateMemberLeft {
		t.Fatalf("after Leave the node is %s, want left", m.State)
	}
}

// TestGossipIdleEpochsStayFixed runs two coordinators that gossip at each
// other while probing the same two healthy seed nodes. Every probe round
// refreshes the members' timestamps, but that is liveness, not a view
// change: across at least ten gossip rounds each way neither epoch moves
// and no received view counts as a change.
func TestGossipIdleEpochsStayFixed(t *testing.T) {
	healthy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"workers":1}`)
	})
	var nodes []Node
	for _, name := range []string{"s1", "s2"} {
		srv := httptest.NewServer(healthy)
		t.Cleanup(srv.Close)
		nodes = append(nodes, Node{Name: name, URL: srv.URL})
	}
	var handlers [2]atomic.Pointer[http.Handler]
	var urls []string
	for i := range handlers {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if h := handlers[i].Load(); h != nil {
				(*h).ServeHTTP(w, r)
				return
			}
			http.Error(w, "starting", http.StatusServiceUnavailable)
		}))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	var coords [2]*Coordinator
	for i := range coords {
		c, err := NewCoordinator(CoordinatorConfig{
			Nodes:       nodes,
			ProbeEvery:  10 * time.Millisecond,
			Peers:       []string{urls[1-i]},
			GossipEvery: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		h := c.Handler()
		handlers[i].Store(&h)
		coords[i] = c
	}
	a, b := coords[0], coords[1]
	waitFor(t, "first gossip rounds", 5*time.Second, func() bool {
		return a.gossipSent.Load() >= 2 && b.gossipSent.Load() >= 2
	})
	epochA, epochB := a.mem.Epoch(), b.mem.Epoch()
	changedA, changedB := a.gossipMerged.Load(), b.gossipMerged.Load()
	sentA, sentB := a.gossipSent.Load(), b.gossipSent.Load()
	probes := a.probes.Load()
	waitFor(t, "ten more gossip rounds each way", 10*time.Second, func() bool {
		return a.gossipSent.Load() >= sentA+10 && b.gossipSent.Load() >= sentB+10
	})
	if a.probes.Load() < probes+4 {
		t.Fatalf("probes did not run alongside the gossip (%d -> %d)", probes, a.probes.Load())
	}
	if a.mem.Epoch() != epochA || b.mem.Epoch() != epochB {
		t.Errorf("idle epochs moved: A %d -> %d, B %d -> %d", epochA, a.mem.Epoch(), epochB, b.mem.Epoch())
	}
	if a.gossipMerged.Load() != changedA || b.gossipMerged.Load() != changedB {
		t.Errorf("idle gossip counted view changes: A %d -> %d, B %d -> %d",
			changedA, a.gossipMerged.Load(), changedB, b.gossipMerged.Load())
	}
	for _, c := range coords {
		for _, m := range c.mem.View().Members {
			if m.State != StateMemberHealthy {
				t.Errorf("seed node %s is %s", m.Name, m.State)
			}
		}
	}
}

// TestGossipSpreadsMembership wires coordinator A to gossip at coordinator
// B and checks a join and a leave observed by A alone reach B, with both
// routing identically.
func TestGossipSpreadsMembership(t *testing.T) {
	b, err := NewCoordinator(CoordinatorConfig{ProbeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	bts := httptest.NewServer(b.Handler())
	t.Cleanup(bts.Close)

	a, err := NewCoordinator(CoordinatorConfig{
		ProbeEvery:  time.Hour,
		Peers:       []string{bts.URL},
		GossipEvery: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)

	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"workers":1}`)
	}))
	t.Cleanup(node.Close)

	for _, name := range []string{"g1", "g2", "g3"} {
		if _, err := a.mem.Join(Node{Name: name, URL: node.URL}); err != nil {
			t.Fatal(err)
		}
		a.adoptNode(name)
	}
	waitFor(t, "gossip to spread joins", 5*time.Second, func() bool {
		return b.mem.Ring() != nil && len(b.mem.Ring().nodes) == 3
	})
	for i := 0; i < 64; i++ {
		key := strings.Repeat("k", i+1)
		if a.mem.Ring().Lookup(key) != b.mem.Ring().Lookup(key) {
			t.Fatalf("coordinators route key %q differently", key)
		}
	}

	if err := a.mem.Leave("g2"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "gossip to spread the leave", 5*time.Second, func() bool {
		m, ok := b.mem.Member("g2")
		return ok && m.State == StateMemberLeft
	})
	if got := len(b.mem.Ring().nodes); got != 2 {
		t.Errorf("peer ring still has %d nodes after leave", got)
	}
	if b.mem.Epoch() == 0 {
		t.Error("peer epoch never advanced")
	}
}

// TestDrainHandoffMovesCacheAndDeregisters is the hand-off e2e: two real
// nodes, a dynamic coordinator, a report computed on its owner; drain
// ?handoff=1 must push the cached report to the surviving node (byte
// identical), deregister the departing member, and shrink the ring — all
// without recomputing anything.
func TestDrainHandoffMovesCacheAndDeregisters(t *testing.T) {
	services := map[string]*simsvc.Service{}
	servers := map[string]*httptest.Server{}
	var nodes []Node
	for _, name := range []string{"h1", "h2"} {
		svc, err := simsvc.New(simsvc.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		name := name
		mux := http.NewServeMux()
		mux.Handle("/", svc.Handler())
		mux.HandleFunc("POST /v1/fleet/handoff", NewHandoffHandler(name, svc.Cache(), nil))
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			svc.Drain(ctx)
		})
		services[name] = svc
		servers[name] = srv
		nodes = append(nodes, Node{Name: name, URL: srv.URL})
	}
	coord, err := NewCoordinator(CoordinatorConfig{Nodes: nodes, ProbeEvery: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	body := `{"workload":"ubench.tp_small","calls":2000,"seed":41}`
	key := specKey(t, body)
	owner := coord.mem.Ring().Lookup(key)
	survivor := "h1"
	if owner == "h1" {
		survivor = "h2"
	}

	resp, err := http.Post(cts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st coordJob
	jb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	json.Unmarshal(jb, &st)
	deadline := time.Now().Add(30 * time.Second)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", st.ID)
		}
		time.Sleep(20 * time.Millisecond)
		r2, err := http.Get(cts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		jb, _ = io.ReadAll(r2.Body)
		r2.Body.Close()
		json.Unmarshal(jb, &st)
	}
	if st.State != simsvc.StateDone || st.Node != owner {
		t.Fatalf("job: state=%s node=%s owner=%s", st.State, st.Node, owner)
	}
	origin, ok := services[owner].Cache().Get(key)
	if !ok {
		t.Fatal("owner does not hold the report it just computed")
	}
	if _, ok := services[survivor].Cache().Get(key); ok {
		t.Fatal("survivor already holds the report; hand-off would prove nothing")
	}

	// Drain with hand-off through the operator endpoint.
	resp, err = http.Post(cts.URL+"/v1/fleet/"+owner+"/drain?handoff=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain?handoff status = %d: %s", resp.StatusCode, db)
	}
	var dr struct {
		FleetHealth
		Handoff *HandoffResult `json:"handoff"`
	}
	if err := json.Unmarshal(db, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Handoff == nil || dr.Handoff.Pushed < 1 || dr.Handoff.Failed != 0 {
		t.Fatalf("handoff summary = %+v", dr.Handoff)
	}

	// The survivor now holds the exact bytes; the departed node is a
	// tombstone off the ring.
	moved, ok := services[survivor].Cache().Get(key)
	if !ok {
		t.Fatal("survivor does not hold the handed-off report")
	}
	if !bytes.Equal(origin, moved) {
		t.Fatal("handed-off report bytes differ from the origin")
	}
	if m, ok := coord.mem.Member(owner); !ok || m.State != StateMemberLeft {
		t.Fatalf("departed node state = %+v", m)
	}
	if nodes := coord.mem.Ring().nodes; len(nodes) != 1 || nodes[0] != survivor {
		t.Fatalf("ring after departure = %v", nodes)
	}
	if coord.handoffs.Load() != 1 || coord.handoffKeys.Load() == 0 {
		t.Errorf("handoff counters: %d orchestrations, %d keys",
			coord.handoffs.Load(), coord.handoffKeys.Load())
	}

	// Resubmitting the job is answered from the survivor's cache — zero
	// recomputes after a graceful departure.
	misses0 := services[survivor].Registry().Snapshot().Value("simsvc.runcache.misses")
	resp, err = http.Post(cts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	jb, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var st2 coordJob
	json.Unmarshal(jb, &st2)
	if resp.StatusCode != http.StatusOK || !st2.Cached || st2.Node != survivor {
		t.Fatalf("resubmit after handoff: status=%d cached=%v node=%s (%s)",
			resp.StatusCode, st2.Cached, st2.Node, jb)
	}
	if misses1 := services[survivor].Registry().Snapshot().Value("simsvc.runcache.misses"); misses1 != misses0 {
		t.Errorf("survivor recomputed after handoff: runcache.misses %v -> %v", misses0, misses1)
	}
}

// TestPeerFillerSetView checks a dynamic filler adopts a membership view:
// ring and URLs both swap, and departed members are dropped.
func TestPeerFillerSetView(t *testing.T) {
	hit := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"report":true}`)
	}))
	t.Cleanup(hit.Close)

	p, err := NewDynamicPeerFiller("self", 0)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	if _, ok := p.Fill(key); ok {
		t.Fatal("fill hit before any view arrived")
	}
	now := time.Now().UnixNano()
	p.SetView(View{Epoch: 1, Members: []Member{
		{Node: Node{Name: "self", URL: "http://unused"}, State: StateMemberHealthy, UpdatedAt: now},
		{Node: Node{Name: "peer", URL: hit.URL}, State: StateMemberHealthy, UpdatedAt: now},
		{Node: Node{Name: "gone", URL: hit.URL}, State: StateMemberLeft, UpdatedAt: now},
	}})
	b, ok := p.Fill(key)
	if !ok || !bytes.Contains(b, []byte("report")) {
		t.Fatalf("fill after view: ok=%v body=%s", ok, b)
	}
	// A view that drops the peer makes fills miss again.
	p.SetView(View{Epoch: 2, Members: []Member{
		{Node: Node{Name: "self", URL: "http://unused"}, State: StateMemberHealthy, UpdatedAt: now},
	}})
	if _, ok := p.Fill(key); ok {
		t.Fatal("fill hit after the peer departed")
	}
}
