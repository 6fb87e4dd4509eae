package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"mallacc/internal/faults"
	"mallacc/internal/simsvc"
)

// admitFleet is three one-worker nodes with disk caches and peer fill
// behind a coordinator. Each node's handler counts the admit-now
// submissions it receives.
type admitFleet struct {
	*testFleet
	dirs    map[string]string
	fillers map[string]*PeerFiller
	admits  map[string]*atomic.Int32
}

func startAdmitFleet(t *testing.T) *admitFleet {
	t.Helper()
	names := []string{"n1", "n2", "n3"}
	f := &admitFleet{
		testFleet: &testFleet{services: map[string]*simsvc.Service{}, servers: map[string]*httptest.Server{}},
		dirs:      map[string]string{},
		fillers:   map[string]*PeerFiller{},
		admits:    map[string]*atomic.Int32{},
	}
	var placeholder []Node
	for _, name := range names {
		placeholder = append(placeholder, Node{Name: name, URL: "http://invalid.invalid"})
	}
	for _, name := range names {
		filler, err := NewPeerFiller(name, placeholder, 0)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		svc, err := simsvc.New(simsvc.Config{Workers: 1, CacheDir: dir, PeerFill: filler.Fill})
		if err != nil {
			t.Fatal(err)
		}
		admits := &atomic.Int32{}
		h := svc.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.Header.Get(simsvc.AdmitHeader) == simsvc.AdmitNow {
				admits.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			svc.Drain(ctx)
		})
		f.services[name], f.servers[name], f.dirs[name] = svc, srv, dir
		f.fillers[name], f.admits[name] = filler, admits
		f.nodes = append(f.nodes, Node{Name: name, URL: srv.URL})
	}
	for _, filler := range f.fillers {
		filler.SetView(healthyView(f.nodes))
	}
	coord, err := NewCoordinator(CoordinatorConfig{Nodes: f.nodes, ProbeEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	f.coord = coord
	f.ts = httptest.NewServer(coord.Handler())
	t.Cleanup(f.ts.Close)
	return f
}

// diskReports counts report files across every node's disk cache.
func (f *admitFleet) diskReports(t *testing.T) int {
	t.Helper()
	n := 0
	for _, dir := range f.dirs {
		m, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		n += len(m)
	}
	return n
}

// TestCoordinatorAdmitsWhereWorkerFree drives four cold jobs with one ring
// order (owner, successor, third node) through a fleet of one-worker nodes whose every run takes a second:
//   - the first starts on the owner;
//   - the second, refused by the busy owner, starts on the successor (a
//     spill);
//   - the third, refused by both at equal backlog, queues at the owner
//     (ring order breaks the tie);
//   - the fourth queues at the successor, now the shorter queue.
//
// The third node is never offered an admit-now job. Every job writes one
// disk report, and a warm resubmit of the spilled job is answered by the
// owner through peer fill without writing another.
func TestCoordinatorAdmitsWhereWorkerFree(t *testing.T) {
	f := startAdmitFleet(t)
	ring := f.coord.mem.Ring()
	var bodies []string
	var order []string
	for seed := 1; len(bodies) < 4; seed++ {
		body := fmt.Sprintf(`{"workload":"ubench.tp_small","calls":1000,"seed":%d}`, seed)
		cands := ring.Candidates(specKey(t, body), 0)
		if order == nil {
			order = cands
		}
		if cands[0] == order[0] && cands[1] == order[1] {
			bodies = append(bodies, body)
		}
	}
	owner, succ, third := order[0], order[1], order[2]

	reg, err := faults.New(faults.Spec{Rules: []faults.RuleSpec{
		{Point: faults.PointExec, Mode: "latency", Latency: "1s"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	faults.Activate(reg)
	t.Cleanup(faults.Deactivate)

	var ids []string
	for i, want := range []string{owner, succ, owner, succ} {
		resp, st := f.post(t, bodies[i])
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: status %d, want 202", i+1, resp.StatusCode)
		}
		if node, _, ok := SplitJobID(st.ID); !ok || node != want || st.Node != want {
			t.Fatalf("job %d ran as %q on %s, want node %s (owner %s, successor %s)", i+1, st.ID, st.Node, want, owner, succ)
		}
		ids = append(ids, st.ID)
	}
	if got := f.coord.spills.Load(); got != 1 {
		t.Errorf("fleet.proxy.spills = %d, want 1", got)
	}
	if got := f.admits[third].Load(); got != 0 {
		t.Errorf("third node %s received %d admit-now submissions, want 0", third, got)
	}
	for _, id := range ids {
		if st := f.await(t, id); st.State != simsvc.StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}
	if got := f.diskReports(t); got != len(ids) {
		t.Fatalf("disk caches hold %d reports for %d jobs", got, len(ids))
	}

	faults.Deactivate()
	resp, st := f.post(t, bodies[1])
	if resp.StatusCode != http.StatusOK || !st.Cached || st.Node != owner {
		t.Fatalf("warm resubmit of the spilled job: status %d cached %v node %s, want 200 cached on %s",
			resp.StatusCode, st.Cached, st.Node, owner)
	}
	if got := f.fillers[owner].hits.Load(); got != 1 {
		t.Errorf("owner peer-fill hits = %d, want 1", got)
	}
	if got := f.diskReports(t); got != len(ids) {
		t.Errorf("warm resubmit changed the disk report count to %d, want %d", got, len(ids))
	}
	if got := f.admits[third].Load(); got != 0 {
		t.Errorf("third node %s received %d admit-now submissions, want 0", third, got)
	}
}

// healthyView is the membership view an Agent would hand a node's peer
// filler once every listed node has joined.
func healthyView(nodes []Node) View {
	v := View{Members: make([]Member, len(nodes))}
	for i, n := range nodes {
		v.Members[i] = Member{Node: n, State: StateMemberHealthy}
	}
	return v
}
