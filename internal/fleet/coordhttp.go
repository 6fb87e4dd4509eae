package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"mallacc/internal/faults"
	"mallacc/internal/simsvc"
	"mallacc/internal/telemetry"
)

// maxProxyBytes bounds request and relayed response bodies.
const maxProxyBytes = 16 << 20

// Handler returns the coordinator's HTTP API. It is the node API verbatim —
// existing clients point at the coordinator and work unchanged — plus the
// fleet control surface:
//
//	POST   /v1/jobs      route a JobSpec to its owning shard (consistent
//	                     hash on the job key): start it on the owner or its
//	                     successor, whichever has a free worker, else queue
//	                     it at the shorter backlog; fail over past dead
//	                     nodes. Job ids come back "<node>.<id>"
//	GET    /v1/jobs/{id} proxied status from the id's node
//	GET    /v1/jobs/{id}/events
//	                     SSE progress fan-out through the coordinator
//	DELETE /v1/jobs/{id} proxied cancel
//	GET    /v1/healthz   aggregate: per-node membership state, drain flag,
//	                     last probe report, ring ownership; ok while >= 1
//	                     node is live (healthy and not draining)
//	GET    /v1/metrics   fleet.* telemetry; JSON or OpenMetrics like a node
//	POST   /v1/fleet/{node}/drain
//	POST   /v1/fleet/{node}/undrain
//	                     operator drain: stop (resp. resume) routing new
//	                     work to the node; running jobs stay reachable.
//	                     drain?handoff=1 additionally pushes the node's
//	                     cached reports to their new ring owners and then
//	                     deregisters it (permanent departure)
//	POST   /v1/fleet/join
//	                     a node announcing itself: {"name","url"}; returns
//	                     the full membership view it should route by.
//	                     Idempotent: agents re-send it on a cadence, and
//	                     re-announcing an on-ring member changes nothing
//	POST   /v1/fleet/leave
//	                     graceful deregistration
//	POST   /v1/fleet/gossip
//	                     coordinator-to-coordinator full-view exchange
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", c.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", c.handleCancel)
	mux.HandleFunc("GET /v1/healthz", c.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", c.handleMetrics)
	mux.HandleFunc("POST /v1/fleet/{node}/drain", c.drainHandler(true))
	mux.HandleFunc("POST /v1/fleet/{node}/undrain", c.drainHandler(false))
	mux.HandleFunc("POST /v1/fleet/join", c.handleJoin)
	mux.HandleFunc("POST /v1/fleet/leave", c.handleLeave)
	mux.HandleFunc("POST /v1/fleet/gossip", c.handleGossip)
	return mux
}

// writeJSON / writeError mirror the node-side conventions: every body is
// JSON, every response is uncacheable live state, every non-2xx carries
// {"error": ...}.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{Error: err.Error()})
}

// proxy performs one coordinator→node hop through the fleet.proxy fault
// point, so the chaos harness can fail hops without touching the nodes.
// admit marks a job submission admit-now (simsvc.AdmitHeader).
func (c *Coordinator) proxy(client *http.Client, r *http.Request, m Member, method, path string, body []byte, admit bool) (*http.Response, error) {
	if err := faults.Inject(faults.PointFleetProxy); err != nil {
		return nil, err
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), method, m.URL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if admit {
		req.Header.Set(simsvc.AdmitHeader, simsvc.AdmitNow)
	}
	return client.Do(req)
}

// fleetJobStatus is a node's JobStatus plus the fleet routing fields: which
// node holds the job, and the coordinator-scoped id "<node>.<id>".
type fleetJobStatus struct {
	simsvc.JobStatus
	Node string `json:"node"`
}

// relayJobStatus decodes a node's job document, prefixes the id with the
// node name, and re-emits it with the upstream status code. The Report
// field is json.RawMessage all the way through, so report bytes survive the
// relay untouched — that is what makes coordinator and single-node runs
// byte-comparable.
func (c *Coordinator) relayJobStatus(w http.ResponseWriter, resp *http.Response, node string) {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBytes))
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("fleet: read node %s response: %v", node, err))
		return
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		// Error documents pass through untouched — they already have the
		// shared {"error": ...} shape.
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
		return
	}
	var st fleetJobStatus
	if err := json.Unmarshal(body, &st.JobStatus); err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("fleet: decode node %s job document: %v", node, err))
		return
	}
	st.Node = node
	st.ID = JoinJobID(node, st.ID)
	writeJSON(w, resp.StatusCode, st)
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	c.requests.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, errors.New("read body: "+err.Error()))
		return
	}
	// Decode and canonicalize here: a bad spec is rejected without burning
	// a network hop, and the canonical form hashes to the same key on the
	// node, so ownership and the node's cache agree by construction.
	spec, err := simsvc.DecodeSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	canon, err := spec.Canonicalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	canonBody, err := json.Marshal(canon)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// Admit-now at the first two candidates — normally the owner, then
	// its successor — and the first with a free worker starts the job.
	// The owner's peer fill asks the ring's next DefaultFillPeers nodes, so
	// a job placed within the ring's first 1+DefaultFillPeers nodes is
	// found by a warm resubmit with no placement table. The first two
	// candidates lie there unless one of those nodes is draining or off
	// the ring, or is a suspect (its last probe or proxy hop failed) and so
	// sorted behind the healthy nodes further round, where it is tried
	// last; then placement degrades to plain failover. If both refuse, the
	// job queues at the shorter backlog (ring order on a tie); failures
	// fall through to the remaining candidates, which take it queued.
	cands := c.candidates(canon.Key())
	admit := min(DefaultFillPeers, len(cands))
	var refused []Member
	var backlog [DefaultFillPeers]int
	for _, m := range cands[:admit] {
		switch b, res := c.offer(w, r, m, canonBody, true); res {
		case offerRelayed:
			if len(refused) > 0 {
				c.spills.Add(1)
			}
			return
		case offerRefused:
			backlog[len(refused)] = b
			refused = append(refused, m)
		}
	}
	if len(refused) == 2 && backlog[1] < backlog[0] {
		refused[0], refused[1] = refused[1], refused[0]
	}
	for _, m := range append(refused, cands[admit:]...) {
		if _, res := c.offer(w, r, m, canonBody, false); res == offerRelayed {
			return
		}
	}
	c.exhausted.Add(1)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable,
		errors.New("fleet: no node can accept the job (all draining or unreachable)"))
}

// offerResult is how one node answered a submission: it failed
// (transport error or 5xx), refused (429: alive but busy or full), or took
// the job, whose document went to the client.
type offerResult int

const (
	offerFailed offerResult = iota
	offerRefused
	offerRelayed
)

// offer proxies one submission to m (admit-now when admit is set) and
// feeds the outcome to the membership and the router counters: success is
// liveness evidence, failure makes the node suspect. A refusal returns the
// node's backlog.
func (c *Coordinator) offer(w http.ResponseWriter, r *http.Request, m Member, body []byte, admit bool) (backlog int, res offerResult) {
	resp, err := c.proxy(c.client, r, m, http.MethodPost, "/v1/jobs", body, admit)
	switch {
	case err != nil || resp.StatusCode >= 500:
		// Transport error, or 503 draining / 5xx: the node cannot take
		// the job.
		if err == nil {
			drain(resp)
		}
		c.mem.Suspect(m.Name)
		c.failovers.Add(1)
		return 0, offerFailed
	case resp.StatusCode == http.StatusTooManyRequests:
		// The node is alive but busy or full: try the next candidate.
		drain(resp)
		c.redirects.Add(1)
		backlog, _ = strconv.Atoi(resp.Header.Get(simsvc.BacklogHeader))
		return backlog, offerRefused
	}
	if ns := c.state(m.Name); ns != nil {
		ns.proxied.Add(1)
	}
	c.mem.MarkAlive(m.Name)
	c.relayJobStatus(w, resp, m.Name)
	return 0, offerRelayed
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxProxyBytes))
	resp.Body.Close()
}

// routeJobID resolves a coordinator job id to its node's member record,
// writing the 404 itself when the id or node is unknown.
func (c *Coordinator) routeJobID(w http.ResponseWriter, id string) (Member, string, bool) {
	node, rest, ok := SplitJobID(id)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("unknown job %q (fleet job ids look like <node>.<id>)", id))
		return Member{}, "", false
	}
	m, ok := c.mem.Member(node)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q: no fleet node %q", id, node))
		return Member{}, "", false
	}
	return m, rest, true
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	m, rest, ok := c.routeJobID(w, r.PathValue("id"))
	if !ok {
		return
	}
	resp, err := c.proxy(c.client, r, m, http.MethodGet, "/v1/jobs/"+rest, nil, false)
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("fleet: node %s: %v", m.Name, err))
		return
	}
	c.relayJobStatus(w, resp, m.Name)
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	m, rest, ok := c.routeJobID(w, r.PathValue("id"))
	if !ok {
		return
	}
	resp, err := c.proxy(c.client, r, m, http.MethodDelete, "/v1/jobs/"+rest, nil, false)
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("fleet: node %s: %v", m.Name, err))
		return
	}
	c.relayJobStatus(w, resp, m.Name)
}

// handleEvents fans a node's SSE progress stream out through the
// coordinator: bytes are copied through verbatim and flushed as they
// arrive, so event ids and framing are exactly the node's. The upstream
// request carries the client's context — closing the browser tab closes
// the node-side stream too.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	m, rest, ok := c.routeJobID(w, r.PathValue("id"))
	if !ok {
		return
	}
	resp, err := c.proxy(c.sseClient, r, m, http.MethodGet, "/v1/jobs/"+rest+"/events", nil, false)
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("fleet: node %s: %v", m.Name, err))
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.relayJobStatus(w, resp, m.Name)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported by connection"))
		return
	}
	c.sseOpen.Add(1)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			flusher.Flush()
		}
		if err != nil {
			return
		}
	}
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Healthz())
}

// handleMetrics mirrors the node-side format negotiation so one scraper
// config covers nodes and coordinator alike.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		format = "openmetrics"
	}
	switch format {
	case "", "json":
		writeJSON(w, http.StatusOK, c.reg.Snapshot())
	case "openmetrics":
		w.Header().Set("Content-Type", telemetry.OpenMetricsContentType)
		w.Header().Set("Cache-Control", "no-store")
		w.WriteHeader(http.StatusOK)
		w.Write(telemetry.OpenMetrics(c.reg.Snapshot()))
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown metrics format %q (want json or openmetrics)", format))
	}
}

// drainResponse is the drain endpoint's body: the fleet health document,
// plus the hand-off summary when ?handoff=1 asked for one.
type drainResponse struct {
	FleetHealth
	Handoff *HandoffResult `json:"handoff,omitempty"`
}

func (c *Coordinator) drainHandler(drain bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		node := r.PathValue("node")
		if err := c.Drain(node, drain); err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		out := drainResponse{}
		if drain && handoffRequested(r) {
			res, err := c.orchestrateHandoff(r, node)
			if err != nil {
				// The drain flag stays set — the node takes no new work — but
				// it remains a member; the operator can retry the hand-off.
				writeError(w, http.StatusBadGateway, err)
				return
			}
			c.handoffs.Add(1)
			c.handoffKeys.Add(uint64(res.Pushed))
			// The push is done; deregister. Leave is a view change every
			// sibling coordinator learns via gossip.
			if err := c.mem.Leave(node); err != nil {
				writeError(w, http.StatusInternalServerError, err)
				return
			}
			out.Handoff = res
		}
		out.FleetHealth = c.Healthz()
		writeJSON(w, http.StatusOK, out)
	}
}

func handoffRequested(r *http.Request) bool {
	switch r.URL.Query().Get("handoff") {
	case "", "0", "false":
		return false
	}
	return true
}

// orchestrateHandoff drives a departing node's cache push: compute the
// surviving membership, tell the node to push each cached report to its
// new ring owner (POST /v1/fleet/handoff), and return the node's summary.
// Uses the untimed client with the operator request's context — a big
// cache takes as long as it takes, and the operator's ctrl-C cancels it.
func (c *Coordinator) orchestrateHandoff(r *http.Request, node string) (*HandoffResult, error) {
	m, ok := c.mem.Member(node)
	if !ok {
		return nil, fmt.Errorf("fleet: unknown node %q", node)
	}
	var survivors []Member
	for _, sm := range c.mem.View().Members {
		if sm.Name != node && stateOnRing(sm.State) {
			survivors = append(survivors, sm)
		}
	}
	body, err := json.Marshal(HandoffRequest{Members: survivors, Replicas: c.replicas})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, m.URL+"/v1/fleet/handoff", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.sseClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fleet: handoff to node %s: %v", node, err)
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBytes))
	if err != nil {
		return nil, fmt.Errorf("fleet: handoff to node %s: read response: %v", node, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: handoff to node %s: status %s: %s", node, resp.Status, bytes.TrimSpace(rb))
	}
	var res HandoffResult
	if err := json.Unmarshal(rb, &res); err != nil {
		return nil, fmt.Errorf("fleet: handoff to node %s: malformed summary: %v", node, err)
	}
	return &res, nil
}

// handleJoin admits a node into the membership, or leaves an on-ring
// member's record as it is when it re-announces itself. The response
// carries the full view so the node can route peer fills immediately.
func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("fleet: decode join: %v", err))
		return
	}
	view, err := c.mem.Join(Node{Name: req.Name, URL: req.URL})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	c.adoptNode(req.Name)
	writeJSON(w, http.StatusOK, joinResponse{Epoch: view.Epoch, View: &view})
}

func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("fleet: decode leave: %v", err))
		return
	}
	if err := c.mem.Leave(req.Name); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, joinResponse{Epoch: c.mem.Epoch()})
}

// handleGossip folds a sibling coordinator's full view into ours and acks
// with our epoch.
func (c *Coordinator) handleGossip(w http.ResponseWriter, r *http.Request) {
	var v View
	if err := json.NewDecoder(io.LimitReader(r.Body, maxProxyBytes)).Decode(&v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("fleet: decode gossip: %v", err))
		return
	}
	c.gossipRecv.Add(1)
	if c.mergeView(v) {
		c.gossipMerged.Add(1)
	}
	writeJSON(w, http.StatusOK, joinResponse{Epoch: c.mem.Epoch()})
}
