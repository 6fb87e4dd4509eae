package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mallacc/internal/faults"
	"mallacc/internal/telemetry"
)

// DefaultHeartbeatEvery is the node agent's re-announce cadence: how
// often it re-sends its join to every coordinator. It bounds how long a
// coordinator restarted cold takes to relearn the node.
const DefaultHeartbeatEvery = 1 * time.Second

// AgentConfig sizes a membership Agent.
type AgentConfig struct {
	// Self is this node's identity: the name it joins under and the base
	// URL coordinators and peers reach it at.
	Self Node
	// Coordinators are the coordinator base URLs to register with. The
	// agent joins every one of them on every round — with gossiping
	// coordinators that is redundant by design, so membership survives any
	// single coordinator restarting.
	Coordinators []string
	// HeartbeatEvery is the re-announce cadence (DefaultHeartbeatEvery
	// when <= 0).
	HeartbeatEvery time.Duration
	// OnView, when set, receives every strictly newer membership view the
	// coordinators' join replies carry; wire PeerFiller.SetView here so
	// fills track the live ring.
	OnView func(View)
	// Client performs the HTTP; a 5s-timeout default applies when nil.
	Client *http.Client
	// Registry receives the fleet.agent.* metrics when non-nil.
	Registry *telemetry.Registry
}

// Agent is the node-side half of dynamic membership: it announces the node
// to every coordinator (POST /v1/fleet/join) at startup and again on every
// round of its cadence, and feeds the full views the replies carry to
// OnView. Re-announcing an on-ring member changes nothing on the
// coordinator, not even its epoch; a coordinator restarted cold, or one
// that declared the node dead, relearns it within one round. The
// agent is not a liveness source — the coordinators' probes and proxy
// outcomes are. Leave deregisters gracefully.
//
// Each join passes the fleet.join fault point first, so the chaos harness
// can isolate a node from its coordinators without touching either
// process.
type Agent struct {
	cfg    AgentConfig
	client *http.Client

	mu    sync.Mutex
	epoch uint64 // highest view epoch seen across coordinators

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	joins atomic.Uint64
	errs  atomic.Uint64
}

// NewAgent validates the config and builds the agent; Start begins the loop.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if !NodeNameRE.MatchString(cfg.Self.Name) {
		return nil, fmt.Errorf("fleet: bad node name %q (want %s)", cfg.Self.Name, NodeNameRE)
	}
	if cfg.Self.URL == "" {
		return nil, fmt.Errorf("fleet: agent needs an advertise URL")
	}
	if len(cfg.Coordinators) == 0 {
		return nil, fmt.Errorf("fleet: agent needs at least one coordinator URL")
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultHeartbeatEvery
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	a := &Agent{
		cfg:    cfg,
		client: client,
		stop:   make(chan struct{}),
	}
	if cfg.Registry != nil {
		cfg.Registry.Counter("fleet.agent.joins", a.joins.Load)
		cfg.Registry.Counter("fleet.agent.errors", a.errs.Load)
		cfg.Registry.Gauge("fleet.agent.epoch", func() float64 { return float64(a.Epoch()) })
	}
	return a, nil
}

// Start launches the join loop. The first round runs immediately, and a
// join admits the node healthy, so it is routable as soon as that lands.
func (a *Agent) Start() {
	a.wg.Add(1)
	go a.loop()
}

// Close stops the loop without deregistering (the failure detector will
// age the node out). Use Leave for a graceful departure.
func (a *Agent) Close() {
	a.stopOnce.Do(func() { close(a.stop) })
	a.wg.Wait()
}

// Epoch returns the highest membership epoch the agent has seen.
func (a *Agent) Epoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

func (a *Agent) loop() {
	defer a.wg.Done()
	a.round()
	t := time.NewTicker(a.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
			a.round()
		}
	}
}

// round announces the node to every coordinator once.
func (a *Agent) round() {
	for _, url := range a.cfg.Coordinators {
		a.join(url)
	}
}

// joinRequest / joinResponse are the join and leave wire documents; a
// join reply carries the full view.
type joinRequest struct {
	Name string `json:"name"`
	URL  string `json:"url,omitempty"`
}

type joinResponse struct {
	Epoch uint64 `json:"epoch"`
	View  *View  `json:"view,omitempty"`
}

func (a *Agent) join(coord string) {
	if err := faults.Inject(faults.PointFleetJoin); err != nil {
		a.errs.Add(1)
		return
	}
	resp, err := a.post(coord+"/v1/fleet/join", joinRequest{Name: a.cfg.Self.Name, URL: a.cfg.Self.URL})
	if err != nil {
		a.errs.Add(1)
		return
	}
	a.joins.Add(1)
	a.adoptView(resp)
}

// Leave deregisters the node from every coordinator (graceful departure).
// Close the agent first, or its next round re-admits the node.
func (a *Agent) Leave() {
	for _, url := range a.cfg.Coordinators {
		a.post(url+"/v1/fleet/leave", joinRequest{Name: a.cfg.Self.Name})
	}
}

// post sends one JSON document and decodes the join/leave response.
func (a *Agent) post(url string, req joinRequest) (joinResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return joinResponse{}, err
	}
	resp, err := a.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return joinResponse{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxFillBytes))
	if err != nil {
		return joinResponse{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return joinResponse{}, fmt.Errorf("fleet: %s: status %s", url, resp.Status)
	}
	var out joinResponse
	if err := json.Unmarshal(b, &out); err != nil {
		return joinResponse{}, fmt.Errorf("fleet: %s: malformed response: %v", url, err)
	}
	return out, nil
}

// adoptView advances the agent's epoch and forwards strictly newer views
// to OnView.
func (a *Agent) adoptView(resp joinResponse) {
	a.mu.Lock()
	newer := resp.Epoch > a.epoch
	if newer {
		a.epoch = resp.Epoch
	}
	a.mu.Unlock()
	if newer && resp.View != nil && a.cfg.OnView != nil {
		a.cfg.OnView(*resp.View)
	}
}

// HandoffCache is the slice of the node's report cache a drain hand-off
// needs: enumerate every held key and read the stored bytes.
// *simsvc.Cache satisfies it.
type HandoffCache interface {
	Keys() []string
	Get(key string) ([]byte, bool)
}

// HandoffRequest is the coordinator's POST /v1/fleet/handoff body: the
// surviving membership (the departing node excluded) and the ring replica
// count, so the node computes exactly the ownership the survivors will
// route by.
type HandoffRequest struct {
	Members  []Member `json:"members"`
	Replicas int      `json:"replicas,omitempty"`
}

// HandoffResult summarizes one hand-off: how many keys the cache held, how
// many were pushed to their new owners, how many pushes failed, and how
// many keys had no reachable owner to push to.
type HandoffResult struct {
	Keys    int `json:"keys"`
	Pushed  int `json:"pushed"`
	Failed  int `json:"failed"`
	Skipped int `json:"skipped"`
}

// NewHandoffHandler returns the node-side POST /v1/fleet/handoff endpoint:
// given the surviving membership, push every locally cached report to its
// new ring owner via PUT /v1/cache/{key}. Pushes pass the fleet.handoff
// fault point per key, so the chaos harness can kill a hand-off midway;
// a failed push is counted and skipped — the report is merely recomputed
// later, never lost. The handler does not deregister the node; the
// orchestrating coordinator does that once the push completes.
func NewHandoffHandler(self string, cache HandoffCache, reg *telemetry.Registry) http.HandlerFunc {
	client := &http.Client{Timeout: 30 * time.Second}
	var pushed, failed atomic.Uint64
	if reg != nil {
		reg.Counter("fleet.handoff.pushed", pushed.Load)
		reg.Counter("fleet.handoff.push_errors", failed.Load)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		var req HandoffRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, maxFillBytes)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("fleet: decode handoff request: %v", err))
			return
		}
		var names []string
		urls := map[string]string{}
		for _, m := range req.Members {
			if m.Name == self || !stateOnRing(m.State) {
				continue
			}
			names = append(names, m.Name)
			urls[m.Name] = m.URL
		}
		res := HandoffResult{}
		if len(names) == 0 {
			// No survivors: nothing to push to. Report every key skipped so
			// the operator sees the cache is about to go cold.
			res.Keys = len(cache.Keys())
			res.Skipped = res.Keys
			writeJSON(w, http.StatusOK, res)
			return
		}
		ring, err := NewRing(req.Replicas, names)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("fleet: handoff ring: %v", err))
			return
		}
		for _, key := range cache.Keys() {
			res.Keys++
			b, ok := cache.Get(key)
			if !ok {
				res.Skipped++ // evicted between Keys and Get; harmless
				continue
			}
			owner := ring.Lookup(key)
			if err := pushKey(r, client, urls[owner], key, b); err != nil {
				failed.Add(1)
				res.Failed++
				continue
			}
			pushed.Add(1)
			res.Pushed++
		}
		writeJSON(w, http.StatusOK, res)
	}
}

// pushKey PUTs one report to its new owner, through the fleet.handoff
// fault point.
func pushKey(r *http.Request, client *http.Client, base, key string, val []byte) error {
	if err := faults.Inject(faults.PointFleetHandoff); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPut, base+"/v1/cache/"+key, bytes.NewReader(val))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxFillBytes))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: handoff push %s to %s: status %s", key, base, resp.Status)
	}
	return nil
}
