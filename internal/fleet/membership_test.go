package fleet

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// testClock is a settable clock for driving the failure detector.
type testClock struct{ t time.Time }

func newTestClock() *testClock {
	return &testClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}
func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestMembership(clk *testClock) *Membership {
	return NewMembership(MembershipConfig{
		SuspectAfter: 5 * time.Second,
		DeadAfter:    15 * time.Second,
		now:          clk.now,
	})
}

func memberState(t *testing.T, m *Membership, name string) string {
	t.Helper()
	rec, ok := m.Member(name)
	if !ok {
		t.Fatalf("member %s missing", name)
	}
	return rec.State
}

// TestMembershipLifecycle walks one member through the whole state machine:
// join → healthy → suspect (silence) → healthy (probe success) → suspect →
// dead (more silence) → healthy (probe revival) → left, with the
// epoch strictly increasing across every view change and the ring tracking
// eligibility.
func TestMembershipLifecycle(t *testing.T) {
	clk := newTestClock()
	m := newTestMembership(clk)
	if _, err := m.Join(Node{Name: "n1", URL: "http://127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Join(Node{Name: "n2", URL: "http://127.0.0.1:2"}); err != nil {
		t.Fatal(err)
	}
	lastEpoch := m.Epoch()
	if lastEpoch == 0 {
		t.Fatal("joins did not advance the epoch")
	}
	expectEpochAbove := func(step string) {
		t.Helper()
		if e := m.Epoch(); e <= lastEpoch {
			t.Fatalf("%s: epoch %d did not advance past %d", step, e, lastEpoch)
		} else {
			lastEpoch = e
		}
	}

	// Fresh probe successes are liveness, not view changes: no epoch bump.
	clk.advance(2 * time.Second)
	m.MarkAlive("n1")
	if m.Tick() {
		t.Fatal("tick with fresh members changed the view")
	}
	if e := m.Epoch(); e != lastEpoch {
		t.Fatalf("MarkAlive of a healthy member bumped the epoch: %d -> %d", lastEpoch, e)
	}

	// n2 goes silent past SuspectAfter: suspect, but still on the ring.
	clk.advance(4 * time.Second) // n2 silent 6s, n1 silent 4s
	if !m.Tick() {
		t.Fatal("tick did not suspect the silent member")
	}
	if got := memberState(t, m, "n2"); got != StateMemberSuspect {
		t.Fatalf("n2 state = %s, want suspect", got)
	}
	if got := memberState(t, m, "n1"); got != StateMemberHealthy {
		t.Fatalf("n1 state = %s, want healthy", got)
	}
	expectEpochAbove("suspect")
	if nodes := m.Ring().nodes; len(nodes) != 2 {
		t.Fatalf("suspect member fell off the ring: %v", nodes)
	}

	// A probe success revives a suspect.
	m.MarkAlive("n2")
	if got := memberState(t, m, "n2"); got != StateMemberHealthy {
		t.Fatalf("n2 state after MarkAlive = %s, want healthy", got)
	}
	expectEpochAbove("revival")

	// Keep n1 alive, let n2 die: suspect after 5s, dead after 20s total.
	for i := 0; i < 21; i++ {
		clk.advance(time.Second)
		m.MarkAlive("n1")
		m.Tick()
	}
	if got := memberState(t, m, "n2"); got != StateMemberDead {
		t.Fatalf("n2 state = %s, want dead", got)
	}
	expectEpochAbove("death")
	if nodes := m.Ring().nodes; len(nodes) != 1 || nodes[0] != "n1" {
		t.Fatalf("dead member still on ring: %v", nodes)
	}
	// A probe success revives a dead member too.
	m.MarkAlive("n2")
	if got := memberState(t, m, "n2"); got != StateMemberHealthy {
		t.Fatalf("n2 state after MarkAlive = %s, want healthy", got)
	}
	expectEpochAbove("probe revival")
	if nodes := m.Ring().nodes; len(nodes) != 2 {
		t.Fatalf("revived member not back on ring: %v", nodes)
	}

	// Graceful departure: tombstoned, off the ring.
	if err := m.Leave("n2"); err != nil {
		t.Fatal(err)
	}
	expectEpochAbove("leave")
	if got := memberState(t, m, "n2"); got != StateMemberLeft {
		t.Fatalf("n2 state = %s, want left", got)
	}
	if nodes := m.Ring().nodes; len(nodes) != 1 {
		t.Fatalf("left member still on ring: %v", nodes)
	}
	// MarkAlive must NOT resurrect a tombstone (a probe racing a drain).
	m.MarkAlive("n2")
	if got := memberState(t, m, "n2"); got != StateMemberLeft {
		t.Fatalf("MarkAlive resurrected a left member: %s", got)
	}

	joins, leaves, suspects, deaths, revivals, _ := m.Counts()
	if joins != 2 || leaves != 1 || suspects < 2 || deaths != 1 || revivals < 2 {
		t.Errorf("counters: joins=%d leaves=%d suspects=%d deaths=%d revivals=%d",
			joins, leaves, suspects, deaths, revivals)
	}
}

// TestMembershipSuspect: failure evidence demotes only a healthy member,
// bumping the epoch and the suspects counter without refreshing its
// HeartbeatAt; every other state and unknown names are left as they are.
// MarkAlive revives a suspect, and Tick takes a silent suspect to dead.
func TestMembershipSuspect(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(m *Membership, clk *testClock) // brings "n" to the start state
		start string                              // "" for a name never joined
		want  string
	}{
		{"healthy", func(*Membership, *testClock) {}, StateMemberHealthy, StateMemberSuspect},
		{"suspect", func(m *Membership, _ *testClock) { m.Suspect("n") }, StateMemberSuspect, StateMemberSuspect},
		{"dead", func(m *Membership, clk *testClock) {
			clk.advance(6 * time.Second)
			m.Tick()
			clk.advance(15 * time.Second)
			m.Tick()
		}, StateMemberDead, StateMemberDead},
		{"left", func(m *Membership, _ *testClock) { m.Leave("n") }, StateMemberLeft, StateMemberLeft},
		{"unknown", func(m *Membership, _ *testClock) {}, "", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := newTestClock()
			m := newTestMembership(clk)
			if tc.start != "" {
				if _, err := m.Join(Node{Name: "n", URL: "http://127.0.0.1:1"}); err != nil {
					t.Fatal(err)
				}
			}
			tc.setup(m, clk)
			if tc.start != "" {
				if got := memberState(t, m, "n"); got != tc.start {
					t.Fatalf("start state = %s, want %s", got, tc.start)
				}
			}
			before, _ := m.Member("n")
			epoch := m.Epoch()
			_, _, suspects, _, _, _ := m.Counts()

			clk.advance(time.Second)
			m.Suspect("n")

			after, ok := m.Member("n")
			if tc.start == "" {
				if ok || m.Epoch() != epoch {
					t.Fatalf("Suspect of an unknown name created %+v or bumped the epoch", after)
				}
				return
			}
			if after.State != tc.want {
				t.Fatalf("state after Suspect = %s, want %s", after.State, tc.want)
			}
			if after.HeartbeatAt != before.HeartbeatAt {
				t.Error("Suspect refreshed HeartbeatAt")
			}
			_, _, s, _, _, _ := m.Counts()
			changed := tc.start != tc.want
			if changed != (m.Epoch() > epoch) || changed != (s == suspects+1) {
				t.Errorf("epoch %d -> %d, suspects %d -> %d; want both to move only on a change",
					epoch, m.Epoch(), suspects, s)
			}
			if !changed && after != before {
				t.Errorf("record changed without a state change: %+v -> %+v", before, after)
			}
		})
	}

	t.Run("revive and die", func(t *testing.T) {
		clk := newTestClock()
		m := newTestMembership(clk)
		if _, err := m.Join(Node{Name: "n", URL: "http://127.0.0.1:1"}); err != nil {
			t.Fatal(err)
		}
		m.Suspect("n")
		m.MarkAlive("n")
		if got := memberState(t, m, "n"); got != StateMemberHealthy {
			t.Fatalf("MarkAlive left a suspect %s, want healthy", got)
		}
		// Suspected right after its last probe success, a silent member dies on
		// Tick's usual schedule: SuspectAfter + DeadAfter after it.
		clk.advance(time.Second)
		m.MarkAlive("n")
		m.Suspect("n")
		clk.advance(19 * time.Second)
		m.Tick()
		if got := memberState(t, m, "n"); got != StateMemberSuspect {
			t.Fatalf("state 19s after the last sign of life = %s, want suspect", got)
		}
		clk.advance(2 * time.Second)
		m.Tick()
		if got := memberState(t, m, "n"); got != StateMemberDead {
			t.Fatalf("state 21s after the last sign of life = %s, want dead", got)
		}
		if m.Ring() != nil {
			t.Error("dead member still on the ring")
		}
	})
}

// TestMembershipChurnConvergesToFreshRing is the churn property test: any
// join → leave → join sequence must land on exactly the ring a fresh
// membership with the final member set would build — same golden ownership,
// key by key. Ring identity is what makes every coordinator and node route
// identically regardless of the membership's history.
func TestMembershipChurnConvergesToFreshRing(t *testing.T) {
	clk := newTestClock()
	churned := newTestMembership(clk)
	node := func(i int) Node {
		return Node{Name: fmt.Sprintf("n%d", i), URL: fmt.Sprintf("http://127.0.0.1:%d", 7000+i)}
	}
	// A deterministic but tangled history over n1..n8: everyone joins,
	// half leave, some of those re-join, one dies and revives, one dies
	// and stays dead.
	for i := 1; i <= 8; i++ {
		if _, err := churned.Join(node(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"n2", "n4", "n6", "n8"} {
		if err := churned.Leave(name); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{4, 8} {
		if _, err := churned.Join(node(i)); err != nil { // re-join after leave
			t.Fatal(err)
		}
	}
	// n7 goes silent and dies; n5 goes suspect then recovers.
	for i := 0; i < 21; i++ {
		clk.advance(time.Second)
		for _, name := range []string{"n1", "n3", "n4", "n8"} {
			churned.MarkAlive(name)
		}
		if i < 10 {
			churned.MarkAlive("n5")
		}
		churned.Tick()
	}
	churned.MarkAlive("n5") // suspect or dead — revived either way
	if got := memberState(t, churned, "n7"); got != StateMemberDead {
		t.Fatalf("n7 = %s, want dead", got)
	}

	// Final ring-eligible set: n1, n3, n4, n5, n8.
	want := []string{"n1", "n3", "n4", "n5", "n8"}
	if got := churned.Ring().nodes; !reflect.DeepEqual(got, want) {
		t.Fatalf("ring nodes = %v, want %v", got, want)
	}

	fresh, err := NewRing(0, want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(churned.Ring().Ownership(), fresh.Ownership()) {
		t.Fatal("churned ring ownership differs from a fresh ring over the final member set")
	}
	for i := 0; i < 512; i++ {
		key := fmt.Sprintf("key-%d", i)
		if got, want := churned.Ring().Lookup(key), fresh.Lookup(key); got != want {
			t.Fatalf("key %q: churned ring owner %s, fresh ring owner %s", key, got, want)
		}
	}

	// And a membership seeded directly with the final set agrees too.
	direct := newTestMembership(newTestClock())
	for _, i := range []int{1, 3, 4, 5, 8} {
		if _, err := direct.Join(node(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 512; i++ {
		key := fmt.Sprintf("key-%d", i)
		if got, want := churned.Ring().Lookup(key), direct.Ring().Lookup(key); got != want {
			t.Fatalf("key %q: churned %s, direct %s", key, got, want)
		}
	}
}

// TestMembershipRejoin pins the join rule node agents rely on when they
// re-announce themselves every round: a known on-ring member with the same
// URL is left exactly as it is (state, drain flag, timestamps, epoch and
// the joins counter), while the reply still carries the full view; a
// changed URL, a dead member and a left member are admitted healthy, a
// view change each.
func TestMembershipRejoin(t *testing.T) {
	const url = "http://127.0.0.1:1"
	for _, tc := range []struct {
		name   string
		setup  func(m *Membership, clk *testClock)
		url    string
		change bool
	}{
		{"healthy", func(*Membership, *testClock) {}, url, false},
		{"draining", func(m *Membership, _ *testClock) { m.SetDraining("n", true) }, url, false},
		{"suspect", func(m *Membership, _ *testClock) { m.Suspect("n") }, url, false},
		{"suspect draining", func(m *Membership, _ *testClock) {
			m.SetDraining("n", true)
			m.Suspect("n")
		}, url, false},
		{"new url", func(*Membership, *testClock) {}, "http://127.0.0.1:2", true},
		{"dead", func(m *Membership, clk *testClock) {
			clk.advance(6 * time.Second)
			m.MarkAlive("other")
			m.Tick()
			clk.advance(15 * time.Second)
			m.MarkAlive("other")
			m.Tick()
		}, url, true},
		{"left", func(m *Membership, _ *testClock) { m.Leave("n") }, url, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := newTestClock()
			m := newTestMembership(clk)
			for _, n := range []Node{{Name: "n", URL: url}, {Name: "other", URL: "http://127.0.0.1:9"}} {
				if _, err := m.Join(n); err != nil {
					t.Fatal(err)
				}
			}
			tc.setup(m, clk)
			before, _ := m.Member("n")
			epoch := m.Epoch()
			joins, _, _, _, _, _ := m.Counts()

			clk.advance(time.Second)
			view, err := m.Join(Node{Name: "n", URL: tc.url})
			if err != nil {
				t.Fatal(err)
			}
			if len(view.Members) != 2 || view.Epoch != m.Epoch() {
				t.Fatalf("join reply is not the full view: %+v (epoch now %d)", view, m.Epoch())
			}
			after, _ := m.Member("n")
			j, _, _, _, _, _ := m.Counts()
			if !tc.change {
				if after != before || m.Epoch() != epoch || j != joins {
					t.Fatalf("re-join of an on-ring member changed something: %+v -> %+v, epoch %d -> %d, joins %d -> %d",
						before, after, epoch, m.Epoch(), joins, j)
				}
				return
			}
			if after.State != StateMemberHealthy || after.Draining || after.URL != tc.url {
				t.Fatalf("re-join did not admit a fresh healthy record: %+v", after)
			}
			if m.Epoch() <= epoch || j != joins+1 {
				t.Fatalf("admission did not count: epoch %d -> %d, joins %d -> %d", epoch, m.Epoch(), joins, j)
			}
			if nodes := m.Ring().nodes; len(nodes) != 2 {
				t.Fatalf("admitted member not on the ring: %v", nodes)
			}
		})
	}
}

// TestMembershipMergeIgnoresLivenessRefresh: a peer's record that differs
// only by a fresher MarkAlive timestamp is adopted (so it still beats an
// older verdict later) but is not a view change — Merge reports false and
// the epoch stays put. Counting it as a change made idle gossiping
// coordinators bump their epochs on every probe round.
func TestMembershipMergeIgnoresLivenessRefresh(t *testing.T) {
	clkA, clkB := newTestClock(), newTestClock()
	a, b := newTestMembership(clkA), newTestMembership(clkB)
	for _, m := range []*Membership{a, b} {
		for _, n := range []Node{{Name: "n1", URL: "http://x/n1"}, {Name: "n2", URL: "http://x/n2"}} {
			if _, err := m.Join(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	a.Merge(b.View())
	b.Merge(a.View())
	epochA, epochB := a.Epoch(), b.Epoch()

	clkB.advance(time.Second)
	b.MarkAlive("n1")
	fresh, _ := b.Member("n1")
	if b.Epoch() != epochB {
		t.Fatalf("MarkAlive of a healthy member bumped the epoch: %d -> %d", epochB, b.Epoch())
	}
	if a.Merge(b.View()) {
		t.Fatal("merging a view that differs only by a liveness refresh reported a view change")
	}
	if a.Epoch() != epochA {
		t.Fatalf("liveness refresh bumped the epoch: %d -> %d", epochA, a.Epoch())
	}
	if got, _ := a.Member("n1"); got != fresh {
		t.Fatalf("fresher record not adopted: %+v, want %+v", got, fresh)
	}
	_, _, _, _, _, merges := a.Counts()
	if merges != 0 {
		t.Fatalf("merges counter = %d, want 0", merges)
	}

	// A real change in the same record is still a view change.
	clkB.advance(time.Second)
	b.SetDraining("n1", true)
	if !a.Merge(b.View()) || a.Epoch() <= epochA {
		t.Fatal("a drain toggle gossiped over did not count as a view change")
	}
}

// TestMembershipMergeConverges exchanges full views between two membership
// tables with divergent histories and checks they agree on every member
// state and on the ring. Also pins the tie-break: with equal freshness the
// worse state wins, so a death verdict is sticky under gossip echo.
func TestMembershipMergeConverges(t *testing.T) {
	clkA, clkB := newTestClock(), newTestClock()
	a, b := newTestMembership(clkA), newTestMembership(clkB)

	// A knows n1, n2; B knows n2 (later, so fresher), n3; n4 left on B.
	if _, err := a.Join(Node{Name: "n1", URL: "http://a/n1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join(Node{Name: "n2", URL: "http://a/n2"}); err != nil {
		t.Fatal(err)
	}
	clkB.advance(time.Second)
	for _, n := range []string{"n2", "n3", "n4"} {
		if _, err := b.Join(Node{Name: n, URL: "http://b/" + n}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Leave("n4"); err != nil {
		t.Fatal(err)
	}

	// Push views both ways until neither side changes (2 rounds suffice for
	// a pair; the loop guards regressions in change detection).
	for i := 0; i < 4; i++ {
		ca := a.Merge(b.View())
		cb := b.Merge(a.View())
		if !ca && !cb {
			break
		}
	}
	va, vb := a.View(), b.View()
	if len(va.Members) != len(vb.Members) {
		t.Fatalf("member counts differ: %d vs %d", len(va.Members), len(vb.Members))
	}
	for i := range va.Members {
		ma, mb := va.Members[i], vb.Members[i]
		if ma.Name != mb.Name || ma.State != mb.State || ma.URL != mb.URL || ma.Draining != mb.Draining {
			t.Errorf("diverged on %s: A=%+v B=%+v", ma.Name, ma, mb)
		}
	}
	if !reflect.DeepEqual(a.Ring().nodes, b.Ring().nodes) {
		t.Fatalf("rings differ: %v vs %v", a.Ring().nodes, b.Ring().nodes)
	}
	// B joined n2 one second later: its URL must have won everywhere.
	if m, _ := a.Member("n2"); m.URL != "http://b/n2" {
		t.Errorf("fresher n2 record lost: %+v", m)
	}
	// The tombstone propagated; nobody resurrects n4.
	if m, ok := a.Member("n4"); !ok || m.State != StateMemberLeft {
		t.Errorf("left tombstone did not propagate: %+v", m)
	}

	// Tie-break: identical UpdatedAt, worse state sticks.
	m2, _ := a.Member("n2")
	echo := m2
	echo.State = StateMemberDead
	if !a.Merge(View{Epoch: a.Epoch(), Members: []Member{echo}}) {
		t.Fatal("equal-timestamp worse state was not merged")
	}
	if got, _ := a.Member("n2"); got.State != StateMemberDead {
		t.Fatalf("n2 = %s, want dead after worse-state tie-break", got.State)
	}
	// Echoing the stale healthy record back must NOT revive it.
	if a.Merge(View{Epoch: a.Epoch(), Members: []Member{m2}}) {
		t.Fatal("stale healthy echo reported a view change")
	}
	if got, _ := a.Member("n2"); got.State != StateMemberDead {
		t.Fatalf("stale healthy echo revived n2: %s", got.State)
	}

	// Garbage records never enter the table.
	before := len(a.View().Members)
	a.Merge(View{Members: []Member{
		{Node: Node{Name: "Bad.Name", URL: "http://x"}, State: StateMemberHealthy},
		{Node: Node{Name: "okname", URL: "http://x"}, State: "zombie"},
	}})
	if got := len(a.View().Members); got != before {
		t.Fatalf("invalid gossip records entered the table: %d -> %d members", before, got)
	}
}

// TestMembershipEpochMonotonic hammers the table with every mutation kind
// and asserts the epoch never goes backwards (the property agent view
// adoption relies on).
func TestMembershipEpochMonotonic(t *testing.T) {
	clk := newTestClock()
	m := newTestMembership(clk)
	last := uint64(0)
	check := func(step string) {
		t.Helper()
		if e := m.Epoch(); e < last {
			t.Fatalf("%s: epoch went backwards %d -> %d", step, last, e)
		} else {
			last = e
		}
	}
	for i := 0; i < 50; i++ {
		n := Node{Name: fmt.Sprintf("n%d", i%5), URL: "http://x"}
		switch i % 7 {
		case 0, 1:
			m.Join(n)
		case 2:
			m.Suspect(n.Name)
		case 3:
			m.SetDraining(n.Name, i%2 == 0)
		case 4:
			clk.advance(7 * time.Second)
			m.Tick()
		case 5:
			m.MarkAlive(n.Name)
		case 6:
			m.Leave(n.Name)
		}
		check(fmt.Sprintf("step %d", i))
	}
	// A merge from a peer far ahead jumps forward, never back.
	m.Merge(View{Epoch: last + 100, Members: []Member{
		{Node: Node{Name: "peer", URL: "http://p"}, State: StateMemberHealthy, UpdatedAt: clk.now().UnixNano()},
	}})
	if e := m.Epoch(); e <= last+100 {
		t.Fatalf("merge from ahead peer: epoch %d, want > %d", e, last+100)
	}
}
