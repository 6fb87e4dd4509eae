package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mallacc/internal/simsvc"
	"mallacc/internal/telemetry"
)

// DefaultProbeEvery is the health-probe cadence. Two seconds keeps a dead
// node's window of misrouted submissions short while the probe load on a
// node stays negligible; the smoke harness turns it down to 200ms.
const DefaultProbeEvery = 2 * time.Second

// DefaultGossipEvery is the coordinator-to-coordinator gossip cadence.
const DefaultGossipEvery = 1 * time.Second

// CoordinatorConfig sizes a Coordinator.
type CoordinatorConfig struct {
	// Nodes seeds the membership (see ParseNodes). Optional: an empty seed
	// starts the coordinator with zero members, waiting for nodes to join
	// at runtime via POST /v1/fleet/join.
	Nodes []Node
	// Replicas is the ring's virtual-node count (DefaultReplicas when <= 0);
	// it must match the nodes' own PeerFiller rings.
	Replicas int
	// ProbeEvery is the health-probe cadence (DefaultProbeEvery when <= 0).
	// The failure detector ticks on the same cadence.
	ProbeEvery time.Duration
	// SuspectAfter / DeadAfter time the failure detector (see
	// MembershipConfig); zero takes the defaults.
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// Peers are sibling coordinators' base URLs; the membership view is
	// gossiped to them so any coordinator routes identically.
	Peers []string
	// GossipEvery is the gossip cadence (DefaultGossipEvery when <= 0).
	GossipEvery time.Duration
	// Registry receives the fleet.* metrics; a fresh one is created when nil.
	Registry *telemetry.Registry
	// Client performs all node HTTP; a 30s-timeout default applies when nil.
	// SSE fan-out and hand-off orchestration use a separate untimed client
	// (both outlive any sensible request timeout).
	Client *http.Client
}

// nodeState is what the coordinator learned about one member beyond its
// membership record: the last probe's occupancy report and error (for
// status and gauges only) and the count of jobs proxied to it. The node's
// one health state (healthy/suspect/dead/left, draining) and its URL live
// in the Membership; routing reads nothing else.
type nodeState struct {
	mu       sync.Mutex
	health   simsvc.Health
	lastErr  string
	probedAt time.Time

	proxied atomic.Uint64
}

// snapshot returns the mutex-guarded fields as a consistent copy.
func (ns *nodeState) snapshot() (h simsvc.Health, lastErr string, probedAt time.Time) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.health, ns.lastErr, ns.probedAt
}

// Coordinator shards /v1/jobs traffic across a fleet of mallacc-serve
// nodes by consistent hashing on the job key. It speaks the same API as a
// single node — clients cannot tell the difference beyond the node-prefixed
// job ids — and layers on dynamic membership (join/leave with a
// suspicion-based failure detector, fed by probe and proxy outcomes,
// driving automatic ring rebuilds), admit-now placement
// within the peer-fill set, failover, drain with cache hand-off, SSE
// fan-out, and a gossiped membership view shared with sibling
// coordinators.
type Coordinator struct {
	mem        *Membership
	reg        *telemetry.Registry
	client     *http.Client
	sseClient  *http.Client
	probeEvery time.Duration
	replicas   int

	nmu        sync.RWMutex
	nodes      map[string]*nodeState
	registered map[string]bool // per-node metric families already registered

	gossipEvery time.Duration
	peers       []string

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	requests  atomic.Uint64 // submissions entering the router
	failovers atomic.Uint64 // candidate skipped after transport/5xx failure
	redirects atomic.Uint64 // candidate skipped on 429 (admit-now refusal or queue full)
	spills    atomic.Uint64 // jobs started on the successor because the owner refused
	exhausted atomic.Uint64 // submissions that ran out of candidates (503)
	probes    atomic.Uint64
	probeErrs atomic.Uint64
	sseOpen   atomic.Uint64

	handoffs       atomic.Uint64 // drain --handoff orchestrations completed
	handoffKeys    atomic.Uint64 // reports pushed across all hand-offs
	gossipSent     atomic.Uint64
	gossipSendErrs atomic.Uint64
	gossipRecv     atomic.Uint64
	gossipMerged   atomic.Uint64 // received gossip that changed the view
}

// NewCoordinator builds the coordinator, seeds the membership from
// cfg.Nodes, and starts its probe and gossip loops. Call Close to stop.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = DefaultProbeEvery
	}
	if cfg.GossipEvery <= 0 {
		cfg.GossipEvery = DefaultGossipEvery
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	c := &Coordinator{
		mem: NewMembership(MembershipConfig{
			SuspectAfter: cfg.SuspectAfter,
			DeadAfter:    cfg.DeadAfter,
			Replicas:     cfg.Replicas,
		}),
		reg:         reg,
		client:      client,
		sseClient:   &http.Client{},
		probeEvery:  cfg.ProbeEvery,
		replicas:    cfg.Replicas,
		nodes:       map[string]*nodeState{},
		registered:  map[string]bool{},
		gossipEvery: cfg.GossipEvery,
		peers:       cfg.Peers,
		stop:        make(chan struct{}),
	}
	for _, n := range cfg.Nodes {
		if _, err := c.mem.Join(n); err != nil {
			return nil, err
		}
		c.adoptNode(n.Name)
	}
	c.registerMetrics()
	c.wg.Add(1)
	go c.probeLoop()
	if len(c.peers) > 0 {
		c.wg.Add(1)
		go c.gossipLoop()
	}
	return c, nil
}

// adoptNode ensures a nodeState and its metric families exist for a
// member. Safe to call repeatedly.
func (c *Coordinator) adoptNode(name string) *nodeState {
	c.nmu.Lock()
	ns := c.nodes[name]
	if ns == nil {
		ns = &nodeState{}
		c.nodes[name] = ns
	}
	fresh := !c.registered[name]
	c.registered[name] = true
	c.nmu.Unlock()
	if fresh {
		c.registerNodeMetrics(name)
	}
	return ns
}

// state returns the nodeState for a member, or nil.
func (c *Coordinator) state(name string) *nodeState {
	c.nmu.RLock()
	defer c.nmu.RUnlock()
	return c.nodes[name]
}

// Close stops the probe and gossip loops. In-flight proxied requests are
// unaffected.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Registry returns the coordinator's metric registry.
func (c *Coordinator) Registry() *telemetry.Registry { return c.reg }

// registerMetrics exposes the fleet.* telemetry: router counters, the
// membership state machine, and (per node, registered at adoption) state /
// queue depth / ownership gauges.
func (c *Coordinator) registerMetrics() {
	c.reg.Counter("fleet.proxy.requests", c.requests.Load)
	c.reg.Counter("fleet.proxy.failovers", c.failovers.Load)
	c.reg.Counter("fleet.proxy.redirects", c.redirects.Load)
	c.reg.Counter("fleet.proxy.spills", c.spills.Load)
	c.reg.Counter("fleet.proxy.exhausted", c.exhausted.Load)
	c.reg.Counter("fleet.probes", c.probes.Load)
	c.reg.Counter("fleet.probe.failures", c.probeErrs.Load)
	c.reg.Counter("fleet.sse.streams", c.sseOpen.Load)
	c.reg.Gauge("fleet.membership.epoch", func() float64 { return float64(c.mem.Epoch()) })
	c.reg.Counter("fleet.membership.joins", func() uint64 { j, _, _, _, _, _ := c.mem.Counts(); return j })
	c.reg.Counter("fleet.membership.leaves", func() uint64 { _, l, _, _, _, _ := c.mem.Counts(); return l })
	c.reg.Counter("fleet.membership.suspects", func() uint64 { _, _, s, _, _, _ := c.mem.Counts(); return s })
	c.reg.Counter("fleet.membership.deaths", func() uint64 { _, _, _, d, _, _ := c.mem.Counts(); return d })
	c.reg.Counter("fleet.membership.revivals", func() uint64 { _, _, _, _, r, _ := c.mem.Counts(); return r })
	c.reg.Counter("fleet.membership.gossip.merged_in", func() uint64 { _, _, _, _, _, g := c.mem.Counts(); return g })
	c.reg.Counter("fleet.membership.handoffs", c.handoffs.Load)
	c.reg.Counter("fleet.membership.handoff.keys", c.handoffKeys.Load)
	c.reg.Counter("fleet.membership.gossip.sent", c.gossipSent.Load)
	c.reg.Counter("fleet.membership.gossip.send_errors", c.gossipSendErrs.Load)
	c.reg.Counter("fleet.membership.gossip.received", c.gossipRecv.Load)
	c.reg.Counter("fleet.membership.gossip.changed", c.gossipMerged.Load)
	c.reg.Gauge("fleet.nodes.total", func() float64 {
		n := 0
		for _, m := range c.mem.View().Members {
			if m.State != StateMemberLeft {
				n++
			}
		}
		return float64(n)
	})
	c.reg.Gauge("fleet.nodes.live", func() float64 {
		live := 0
		for _, m := range c.mem.View().Members {
			if m.live() {
				live++
			}
		}
		return float64(live)
	})
}

// registerNodeMetrics publishes one node's gauge family. Metric names are
// registered at most once per node name for the life of the process (the
// registry rejects duplicates); a node leaving and rejoining reuses them.
func (c *Coordinator) registerNodeMetrics(name string) {
	c.reg.Gauge("fleet.node."+name+".ownership", func() float64 {
		if ring := c.mem.Ring(); ring != nil {
			return ring.Ownership()[name]
		}
		return 0
	})
	c.reg.Gauge("fleet.node."+name+".queue_depth", func() float64 {
		if ns := c.state(name); ns != nil {
			h, _, _ := ns.snapshot()
			return float64(h.QueueDepth)
		}
		return 0
	})
	// state is the membership verdict's stateRank: 0 healthy, 1 suspect,
	// 2 dead, 3 left.
	c.reg.Gauge("fleet.node."+name+".state", func() float64 {
		m, _ := c.mem.Member(name)
		return float64(stateRank(m.State))
	})
	c.reg.Counter("fleet.node."+name+".proxied", func() uint64 {
		if ns := c.state(name); ns != nil {
			return ns.proxied.Load()
		}
		return 0
	})
}

// probeLoop polls every member's /v1/healthz on the configured cadence
// and ticks the failure detector. A probe failure makes the node suspect
// (routed to last); a probe success is liveness evidence, so it revives
// a suspect. Probes and proxy outcomes are the only liveness evidence, so
// static and self-joined members age out the same way.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	// Probe once immediately so the first submissions route on real data
	// when nodes are already up.
	c.probeAll()
	t := time.NewTicker(c.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll()
			c.mem.Tick()
		}
	}
}

func (c *Coordinator) probeAll() {
	var wg sync.WaitGroup
	for _, m := range c.mem.View().Members {
		if m.State == StateMemberLeft {
			continue
		}
		ns := c.adoptNode(m.Name)
		wg.Add(1)
		go func(m Member) {
			defer wg.Done()
			c.probe(m, ns)
		}(m)
	}
	wg.Wait()
}

// probe checks one node's /v1/healthz. The body is read in full and
// strictly unmarshaled, and the document's shape is validated: a node
// answering 200 with garbage, a truncated body, or JSON of the wrong
// shape (a real healthz always reports a positive worker count) is a
// probe FAILURE, exactly like a refused connection — a half-up process
// must not be routed to on the strength of a lie. A node reporting itself
// draining fails the probe too. Failed jobs do not: the simulator is
// deterministic, so a job's failure is a property of its spec, not of the
// node that ran it.
func (c *Coordinator) probe(m Member, ns *nodeState) {
	c.probes.Add(1)
	resp, err := c.client.Get(m.URL + "/v1/healthz")
	var doc simsvc.Health
	if err == nil {
		var body []byte
		body, err = io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		switch {
		case err != nil:
			err = fmt.Errorf("healthz read: %v", err)
		case resp.StatusCode != http.StatusOK:
			err = fmt.Errorf("healthz status %s", resp.Status)
		default:
			if uerr := json.Unmarshal(body, &doc); uerr != nil {
				err = fmt.Errorf("healthz malformed: %v", uerr)
			} else if doc.Workers < 1 {
				err = fmt.Errorf("healthz implausible (workers=%d)", doc.Workers)
			} else if doc.Draining {
				err = errors.New("healthz reports draining")
			}
		}
	}
	ns.mu.Lock()
	ns.probedAt = time.Now()
	if err != nil {
		ns.lastErr = err.Error()
		ns.health = simsvc.Health{}
	} else {
		ns.lastErr = ""
		ns.health = doc
	}
	ns.mu.Unlock()
	if err != nil {
		c.probeErrs.Add(1)
		c.mem.Suspect(m.Name)
	} else {
		c.mem.MarkAlive(m.Name)
	}
}

// candidates returns the submission order for a key: on-ring members that
// are not draining, in ring order, healthy members before suspects. A
// member whose last probe or proxy hop failed is suspect, so it is tried
// last rather than skipped.
func (c *Coordinator) candidates(key string) []Member {
	ring := c.mem.Ring()
	if ring == nil {
		return nil
	}
	var healthy, suspect []Member
	for _, name := range ring.Candidates(key, 0) {
		m, ok := c.mem.Member(name)
		switch {
		case !ok || m.Draining:
		case m.State == StateMemberHealthy:
			healthy = append(healthy, m)
		case m.State == StateMemberSuspect:
			suspect = append(suspect, m)
		}
	}
	return append(healthy, suspect...)
}

// Drain marks a node as draining (operator action via mallacc-ctl): no new
// submissions route to it, existing jobs remain reachable. Undrain reverses
// it. Unknown node names error.
func (c *Coordinator) Drain(node string, drain bool) error {
	return c.mem.SetDraining(node, drain)
}

// NodeStatus is the per-node entry in the coordinator's healthz document.
type NodeStatus struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// State is the node's one health state: healthy, suspect, dead, left.
	State    string `json:"state"`
	Draining bool   `json:"draining"`
	// Ownership is the node's fraction of the hash space (0 off-ring).
	Ownership float64 `json:"ownership"`
	simsvc.Health
	LastError string `json:"last_error,omitempty"`
	// ProbeAgeSeconds is the time since the node was last probed; -1
	// before the first probe lands.
	ProbeAgeSeconds float64 `json:"probe_age_seconds"`
	// HeartbeatAgeSeconds is the time since the last liveness evidence
	// (probe success, proxy success); -1 when none recorded.
	HeartbeatAgeSeconds float64 `json:"heartbeat_age_seconds"`
}

// FleetHealth is the coordinator's /v1/healthz document: ok when at least
// one node can take work, plus the versioned membership view mallacc-ctl
// status renders.
type FleetHealth struct {
	OK bool `json:"ok"`
	// Epoch is the membership view version; it advances on every
	// admission, leave, drain toggle, and failure-detector transition.
	Epoch uint64       `json:"epoch"`
	Live  int          `json:"live"`
	Total int          `json:"total"`
	Nodes []NodeStatus `json:"nodes"`
}

// Healthz aggregates per-node membership states, probe reports and
// ownership. Departed (left) members appear with zero
// ownership so a hand-off's conclusion is visible; they count toward
// neither live nor total.
func (c *Coordinator) Healthz() FleetHealth {
	view := c.mem.View()
	var own map[string]float64
	if ring := c.mem.Ring(); ring != nil {
		own = ring.Ownership()
	}
	now := time.Now()
	out := FleetHealth{Epoch: view.Epoch}
	for _, m := range view.Members {
		st := NodeStatus{
			Name:                m.Name,
			URL:                 m.URL,
			State:               m.State,
			Draining:            m.Draining,
			Ownership:           own[m.Name],
			ProbeAgeSeconds:     -1,
			HeartbeatAgeSeconds: -1,
		}
		if m.HeartbeatAt > 0 {
			st.HeartbeatAgeSeconds = now.Sub(time.Unix(0, m.HeartbeatAt)).Seconds()
		}
		if ns := c.state(m.Name); ns != nil {
			h, lastErr, probedAt := ns.snapshot()
			st.Health = h
			st.LastError = lastErr
			if !probedAt.IsZero() {
				st.ProbeAgeSeconds = now.Sub(probedAt).Seconds()
			}
		}
		if m.State != StateMemberLeft {
			out.Total++
		}
		if m.live() {
			out.Live++
		}
		out.Nodes = append(out.Nodes, st)
	}
	out.OK = out.Live > 0
	return out
}

// gossipLoop pushes the full membership view to every peer coordinator
// on the configured cadence. Merges are record-wise idempotent, so a lost
// or repeated round costs nothing, and a peer restarted cold relearns the
// whole view on its first round.
func (c *Coordinator) gossipLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.gossipEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			for _, p := range c.peers {
				c.gossipTo(p)
			}
		}
	}
}

func (c *Coordinator) gossipTo(peer string) {
	body, err := json.Marshal(c.mem.View())
	if err != nil {
		return
	}
	resp, err := c.client.Post(peer+"/v1/fleet/gossip", "application/json", bytes.NewReader(body))
	if err != nil {
		c.gossipSendErrs.Add(1)
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.gossipSendErrs.Add(1)
		return
	}
	c.gossipSent.Add(1)
}

// mergeView folds a remote view into the membership and adopts any new
// members' node states. Returns true when the view changed.
func (c *Coordinator) mergeView(v View) bool {
	changed := c.mem.Merge(v)
	for _, m := range v.Members {
		if m.State != StateMemberLeft {
			c.adoptNode(m.Name)
		}
	}
	return changed
}
