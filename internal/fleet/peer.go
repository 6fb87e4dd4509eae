package fleet

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mallacc/internal/faults"
	"mallacc/internal/telemetry"
)

// DefaultFillPeers is how many ring candidates (excluding self) a node asks
// before giving up and recomputing. The owner plus one successor covers both
// steady-state ownership and the failover node a report may have landed on.
const DefaultFillPeers = 2

// maxFillBytes bounds one peer-fill response; reports are tens of KB, so
// 16 MiB is generous without letting a confused peer exhaust memory.
const maxFillBytes = 16 << 20

// PeerFiller is the node-side half of peer-to-peer cache fill. Plugged into
// simsvc.Config.PeerFill, it turns a local cache miss into a ring walk: ask
// the job key's other candidates for the report via GET /v1/cache/{key} and
// adopt the first hit. Misses and transport errors degrade to "not found" —
// the node simply recomputes, so peer fill can only ever save work, never
// add a failure mode.
type PeerFiller struct {
	self     string
	client   *http.Client
	maxPeers int
	replicas int

	mu   sync.RWMutex
	ring *Ring             // nil while the membership view is empty
	urls map[string]string // node name -> base URL

	hits, misses, errs atomic.Uint64
}

// NewPeerFiller builds a filler for node self over the fleet's membership.
// self must be one of nodes. replicas <= 0 takes DefaultReplicas so every
// node and the coordinator agree on ownership.
func NewPeerFiller(self string, nodes []Node, replicas int) (*PeerFiller, error) {
	ring, err := NewRing(replicas, nodeNames(nodes))
	if err != nil {
		return nil, err
	}
	urls := make(map[string]string, len(nodes))
	for _, n := range nodes {
		urls[n.Name] = n.URL
	}
	if _, ok := urls[self]; !ok {
		return nil, fmt.Errorf("fleet: self node %q is not in the fleet spec", self)
	}
	return &PeerFiller{
		self:     self,
		client:   &http.Client{Timeout: 10 * time.Second},
		maxPeers: DefaultFillPeers,
		replicas: replicas,
		ring:     ring,
		urls:     urls,
	}, nil
}

// NewDynamicPeerFiller builds a filler for a node that learns its fleet at
// runtime from the coordinator's membership view (see Agent / SetView).
// Until the first view arrives the ring holds only self, so every fill is
// a clean local miss.
func NewDynamicPeerFiller(self string, replicas int) (*PeerFiller, error) {
	return NewPeerFiller(self, []Node{{Name: self, URL: "self"}}, replicas)
}

// SetView adopts a membership view: the ring is rebuilt from the view's
// ring-eligible members and the URL table from every non-departed record,
// so fills route exactly like the coordinator that emitted the view. A
// view whose ring does not include self still works — self never asks
// itself anyway. Called from the membership Agent on every epoch change.
func (p *PeerFiller) SetView(v View) {
	names := v.RingNodes()
	var ring *Ring
	if len(names) > 0 {
		r, err := NewRing(p.replicas, names)
		if err != nil {
			return // a view with invalid names is a peer bug; keep the old ring
		}
		ring = r
	}
	urls := make(map[string]string, len(v.Members))
	for _, m := range v.Members {
		if m.State != StateMemberLeft {
			urls[m.Name] = m.URL
		}
	}
	p.mu.Lock()
	p.ring = ring
	p.urls = urls
	p.mu.Unlock()
}

// Fill implements simsvc.Config.PeerFill: it asks up to DefaultFillPeers
// ring candidates (skipping self) for the key's report and returns the
// first hit. Any failure — injected fault, transport error, non-200 — just
// moves on to the next candidate; exhaustion is a miss.
func (p *PeerFiller) Fill(key string) ([]byte, bool) {
	p.mu.RLock()
	ring := p.ring
	p.mu.RUnlock()
	if ring == nil {
		p.misses.Add(1)
		return nil, false
	}
	asked := 0
	for _, node := range ring.Candidates(key, 0) {
		if node == p.self || asked >= p.maxPeers {
			continue
		}
		p.mu.RLock()
		base, ok := p.urls[node]
		p.mu.RUnlock()
		if !ok {
			continue
		}
		asked++
		b, err := p.fetch(base, key)
		if err != nil {
			p.errs.Add(1)
			continue
		}
		if b == nil { // clean 404: the peer just doesn't hold it
			continue
		}
		p.hits.Add(1)
		return b, true
	}
	p.misses.Add(1)
	return nil, false
}

// fetch asks one peer for one key. A 404 returns (nil, nil) — a clean miss,
// distinct from a transport or server error.
func (p *PeerFiller) fetch(base, key string) ([]byte, error) {
	if err := faults.Inject(faults.PointPeerFill); err != nil {
		return nil, err
	}
	resp, err := p.client.Get(base + "/v1/cache/" + key)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("fleet: peer fill %s: unexpected status %s", base, resp.Status)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxFillBytes+1))
	if err != nil {
		return nil, err
	}
	if len(b) > maxFillBytes {
		return nil, fmt.Errorf("fleet: peer fill %s: response exceeds %d bytes", base, maxFillBytes)
	}
	return b, nil
}

// RegisterMetrics exposes the fill counters on the node's registry — the
// smoke test's "resubmit after rejoin was served from a peer" proof reads
// fleet.peerfill.hits here.
func (p *PeerFiller) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("fleet.peerfill.hits", p.hits.Load)
	reg.Counter("fleet.peerfill.misses", p.misses.Load)
	reg.Counter("fleet.peerfill.errors", p.errs.Load)
}
