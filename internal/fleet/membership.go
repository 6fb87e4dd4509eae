package fleet

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Membership state machine. A member is born healthy on join; a failed
// probe or proxy hop, or no liveness evidence (a probe success or a
// proxied request that worked) for long enough, demotes it to suspect;
// staying silent demotes it to dead; any fresh evidence revives it to
// healthy. Left is
// the terminal state of a graceful departure (drain with hand-off) — a
// tombstone kept so gossip propagates the departure instead of a peer
// coordinator resurrecting the record.
const (
	StateMemberHealthy = "healthy"
	StateMemberSuspect = "suspect"
	StateMemberDead    = "dead"
	StateMemberLeft    = "left"
)

// stateRank orders states by badness; gossip merges with equal freshness
// keep the worse state so deaths and departures win ties.
func stateRank(s string) int {
	switch s {
	case StateMemberHealthy:
		return 0
	case StateMemberSuspect:
		return 1
	case StateMemberDead:
		return 2
	case StateMemberLeft:
		return 3
	}
	return -1
}

// OnRing reports whether a state keeps a member on the hash ring. Suspect
// members stay on the ring (their caches are still the best first guess);
// dead and left members come off, which is the automatic rebuild that
// moves their ~K/N keys to the survivors.
func stateOnRing(s string) bool {
	return s == StateMemberHealthy || s == StateMemberSuspect
}

// Member is one node's record in the versioned membership view. Records
// travel between coordinators via gossip; UpdatedAt orders competing
// records for the same node (later observation wins, ties break toward
// the worse state), which assumes the coordinators' clocks are roughly
// comparable — fine for one machine or NTP-synced hosts; a per-node
// incarnation counter is the upgrade path if that ever stops holding.
type Member struct {
	Node
	// State is the failure detector's verdict: healthy, suspect, dead, left.
	State string `json:"state"`
	// Draining is the operator flag: no new work routes to the node, but it
	// stays on the ring and keeps serving what it holds.
	Draining bool `json:"draining"`
	// UpdatedAt is the unix-nano timestamp of the last observed transition
	// or liveness evidence — the gossip freshness ordering, so a fresher
	// sign of life beats an older death verdict.
	UpdatedAt int64 `json:"updated_at"`
	// HeartbeatAt is the unix-nano timestamp of the last liveness evidence
	// (probe success, successful proxy hop).
	HeartbeatAt int64 `json:"heartbeat_at"`
}

// live reports whether a member takes new work at full preference:
// healthy and not draining. Healthz and the fleet.nodes.live gauge count
// these.
func (m Member) live() bool { return m.State == StateMemberHealthy && !m.Draining }

// View is a versioned snapshot of the whole membership: the monotonic
// epoch and every member record sorted by name. It is also the gossip
// message. Equal member sets produce equal rings on every coordinator,
// which is what makes N coordinators route identically.
type View struct {
	Epoch   uint64   `json:"epoch"`
	Members []Member `json:"members"`
}

// RingNodes returns the names of the view's ring-eligible members, sorted.
func (v View) RingNodes() []string {
	var names []string
	for _, m := range v.Members {
		if stateOnRing(m.State) {
			names = append(names, m.Name)
		}
	}
	sort.Strings(names)
	return names
}

// MembershipConfig times the failure detector.
type MembershipConfig struct {
	// SuspectAfter is how long without liveness evidence a healthy member
	// lasts before suspicion (DefaultSuspectAfter when <= 0).
	SuspectAfter time.Duration
	// DeadAfter is how much longer a suspect member lasts before it is
	// declared dead and taken off the ring (DefaultDeadAfter when <= 0).
	DeadAfter time.Duration
	// Replicas is the ring's virtual-node count (DefaultReplicas when <= 0).
	Replicas int
	// now overrides the clock in tests.
	now func() time.Time
}

// DefaultSuspectAfter must comfortably exceed the probe cadence so one
// lost probe never churns the view.
const DefaultSuspectAfter = 5 * time.Second

// DefaultDeadAfter is the suspect grace period before the ring rebuild.
// Suspicion already stops routing preference; death is the expensive,
// key-moving verdict, so it waits out transient stalls.
const DefaultDeadAfter = 15 * time.Second

// Membership is a coordinator's live membership table: the authoritative
// member records, the monotonic view epoch, and the hash ring derived
// from the ring-eligible members. Every mutation that changes the view
// (join, leave, state transition, drain toggle) bumps the epoch and, when
// the ring-eligible set changed, rebuilds the ring; liveness evidence and
// re-announcements refresh or keep records without bumping the epoch
// (liveness is not a view change). It is safe for concurrent use.
type Membership struct {
	mu      sync.RWMutex
	cfg     MembershipConfig
	epoch   uint64
	members map[string]*Member
	ring    *Ring // nil while no member is ring-eligible

	// transition counters for fleet.membership.* metrics
	joins, leaves, suspects, deaths, revivals, merges uint64
}

// NewMembership builds an empty membership table.
func NewMembership(cfg MembershipConfig) *Membership {
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = DefaultSuspectAfter
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = DefaultDeadAfter
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Membership{
		cfg:     cfg,
		members: map[string]*Member{},
	}
}

// rebuildLocked recomputes the ring from the ring-eligible members. Call
// with mu held after any mutation that may have changed the eligible set.
func (m *Membership) rebuildLocked() {
	var names []string
	for _, rec := range m.members {
		if stateOnRing(rec.State) {
			names = append(names, rec.Name)
		}
	}
	if len(names) == 0 {
		m.ring = nil
		return
	}
	sort.Strings(names)
	ring, err := NewRing(m.cfg.Replicas, names)
	if err != nil {
		// Names were validated at join; an error here is a programming bug.
		panic(fmt.Sprintf("fleet: membership ring rebuild: %v", err))
	}
	m.ring = ring
}

// Join registers node (or revives/updates an existing record) and returns
// the full resulting view. Node agents re-announce on a cadence, so
// joining is idempotent: a known on-ring (healthy or suspect) member with
// the same URL is left exactly as it is — state, drain flag, timestamps,
// epoch and counters — because a join is not evidence of reachability.
// A new name, or one coming back from dead or left, is admitted healthy,
// which puts it on the ring; a changed URL replaces the record the same
// way.
func (m *Membership) Join(n Node) (View, error) {
	if !NodeNameRE.MatchString(n.Name) {
		return View{}, fmt.Errorf("fleet: bad node name %q (want %s)", n.Name, NodeNameRE)
	}
	if n.URL == "" {
		return View{}, fmt.Errorf("fleet: node %q joined with an empty url", n.Name)
	}
	now := m.cfg.now().UnixNano()
	m.mu.Lock()
	defer m.mu.Unlock()
	rec := m.members[n.Name]
	wasOnRing := rec != nil && stateOnRing(rec.State)
	if wasOnRing && rec.URL == n.URL {
		return m.viewLocked(), nil
	}
	m.members[n.Name] = &Member{
		Node:        n,
		State:       StateMemberHealthy,
		UpdatedAt:   now,
		HeartbeatAt: now,
	}
	m.epoch++
	m.joins++
	if !wasOnRing {
		m.rebuildLocked()
	}
	return m.viewLocked(), nil
}

// MarkAlive records liveness evidence (a probe success, a proxied request
// that worked): it refreshes the member's timestamps and revives a
// suspect or dead member to healthy — a probe reaching a "dead" process
// proves the verdict wrong, so the member returns to the ring. Unknown or
// left names are ignored.
func (m *Membership) MarkAlive(name string) {
	now := m.cfg.now().UnixNano()
	m.mu.Lock()
	defer m.mu.Unlock()
	rec := m.members[name]
	if rec == nil || rec.State == StateMemberLeft {
		return
	}
	rec.HeartbeatAt = now
	rec.UpdatedAt = now
	switch rec.State {
	case StateMemberSuspect:
		rec.State = StateMemberHealthy
		m.epoch++
		m.revivals++
	case StateMemberDead:
		rec.State = StateMemberHealthy
		m.epoch++
		m.revivals++
		m.rebuildLocked()
	}
}

// Suspect records failure evidence (a failed probe or proxy hop): a
// healthy member turns suspect, a view change that keeps it on the ring
// but sorts it behind healthy members. HeartbeatAt is not refreshed, so a
// member that stays unreachable goes dead on Tick's schedule; MarkAlive
// revives it. Other states and unknown names are unchanged.
func (m *Membership) Suspect(name string) {
	now := m.cfg.now().UnixNano()
	m.mu.Lock()
	defer m.mu.Unlock()
	if rec := m.members[name]; rec != nil && rec.State == StateMemberHealthy {
		m.suspectLocked(rec, now)
	}
}

// suspectLocked demotes a healthy record to suspect. Call with mu held.
func (m *Membership) suspectLocked(rec *Member, now int64) {
	rec.State = StateMemberSuspect
	rec.UpdatedAt = now
	m.epoch++
	m.suspects++
}

// Leave marks a member as permanently departed: off the ring, record kept
// as a tombstone so gossip spreads the departure.
func (m *Membership) Leave(name string) error {
	now := m.cfg.now().UnixNano()
	m.mu.Lock()
	defer m.mu.Unlock()
	rec := m.members[name]
	if rec == nil {
		return fmt.Errorf("fleet: unknown node %q", name)
	}
	if rec.State == StateMemberLeft {
		return nil
	}
	wasOnRing := stateOnRing(rec.State)
	rec.State = StateMemberLeft
	rec.Draining = false
	rec.UpdatedAt = now
	m.epoch++
	m.leaves++
	if wasOnRing {
		m.rebuildLocked()
	}
	return nil
}

// SetDraining toggles the operator drain flag. Unknown or departed
// members error.
func (m *Membership) SetDraining(name string, draining bool) error {
	now := m.cfg.now().UnixNano()
	m.mu.Lock()
	defer m.mu.Unlock()
	rec := m.members[name]
	if rec == nil || rec.State == StateMemberLeft {
		return fmt.Errorf("fleet: unknown node %q", name)
	}
	if rec.Draining == draining {
		return nil
	}
	rec.Draining = draining
	rec.UpdatedAt = now
	m.epoch++
	return nil
}

// Tick runs one failure-detector pass: healthy members without liveness
// evidence for SuspectAfter become suspect; suspects that stay silent for
// DeadAfter more become dead and come off the ring. Returns true when the
// view changed.
func (m *Membership) Tick() bool {
	now := m.cfg.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := false
	rebuild := false
	for _, rec := range m.members {
		silent := now.Sub(time.Unix(0, rec.HeartbeatAt))
		switch rec.State {
		case StateMemberHealthy:
			if silent > m.cfg.SuspectAfter {
				m.suspectLocked(rec, now.UnixNano())
				changed = true
			}
		case StateMemberSuspect:
			if silent > m.cfg.SuspectAfter+m.cfg.DeadAfter {
				rec.State = StateMemberDead
				rec.UpdatedAt = now.UnixNano()
				m.epoch++
				m.deaths++
				changed = true
				rebuild = true
			}
		}
	}
	if rebuild {
		m.rebuildLocked()
	}
	return changed
}

// viewLocked snapshots the full view. Call with mu held (read or write).
func (m *Membership) viewLocked() View {
	v := View{Epoch: m.epoch}
	for _, rec := range m.members {
		v.Members = append(v.Members, *rec)
	}
	sort.Slice(v.Members, func(i, j int) bool { return v.Members[i].Name < v.Members[j].Name })
	return v
}

// View returns the full current membership view.
func (m *Membership) View() View {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.viewLocked()
}

// Epoch returns the current view epoch.
func (m *Membership) Epoch() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.epoch
}

// Ring returns the current hash ring, or nil while no member is
// ring-eligible. The ring is immutable; callers may hold it across calls.
func (m *Membership) Ring() *Ring {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ring
}

// Member returns a member's current record.
func (m *Membership) Member(name string) (Member, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	rec := m.members[name]
	if rec == nil {
		return Member{}, false
	}
	return *rec, true
}

// Merge folds a remote view into the local table: record-wise, the
// fresher UpdatedAt wins, ties keep the worse state so terminal verdicts
// are sticky. A fresher record is always adopted, but it is a view change
// only when its URL, state or drain flag differs — a record that merely
// carries a newer probe timestamp is liveness, not a change, so idle
// coordinators gossiping their probe results keep their epochs fixed.
// The local epoch advances to at least the remote's and bumps once more
// when the merge changed the view, keeping epochs roughly aligned across
// coordinators while staying monotonic locally. Returns true when the
// local view changed.
func (m *Membership) Merge(remote View) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := false
	rebuild := false
	for _, rm := range remote.Members {
		if !NodeNameRE.MatchString(rm.Name) || stateRank(rm.State) < 0 {
			continue // never let a confused peer corrupt the table
		}
		rec := m.members[rm.Name]
		if rec == nil {
			m.members[rm.Name] = &rm
			changed = true
			rebuild = rebuild || stateOnRing(rm.State)
			continue
		}
		if rm.UpdatedAt < rec.UpdatedAt {
			continue
		}
		if rm.UpdatedAt == rec.UpdatedAt && stateRank(rm.State) <= stateRank(rec.State) {
			continue
		}
		if rec.URL != rm.URL || rec.State != rm.State || rec.Draining != rm.Draining {
			changed = true
			rebuild = rebuild || stateOnRing(rec.State) != stateOnRing(rm.State)
		}
		*rec = rm
	}
	if remote.Epoch > m.epoch {
		m.epoch = remote.Epoch
	}
	if changed {
		m.epoch++
		m.merges++
	}
	if rebuild {
		m.rebuildLocked()
	}
	return changed
}

// Counts returns the transition counters (joins, leaves, suspects,
// deaths, revivals, merges) for metric registration.
func (m *Membership) Counts() (joins, leaves, suspects, deaths, revivals, merges uint64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.joins, m.leaves, m.suspects, m.deaths, m.revivals, m.merges
}
