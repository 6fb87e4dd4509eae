package simsvc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"mallacc/internal/harness"
)

// Admit-now submissions (AdmitHeader): a miss starts only on a free
// worker, a busy node answers 429 with its backlog, hits are served
// regardless.

// gateSims makes every single-core simulation on svc wait until the
// returned release is called; started receives one value per simulation
// as it begins.
func gateSims(t *testing.T, svc *Service) (started chan struct{}, release func()) {
	t.Helper()
	started = make(chan struct{}, 64)
	gate := make(chan struct{})
	svc.simulate = func(o harness.Options) *harness.Result {
		started <- struct{}{}
		<-gate
		return harness.Run(o)
	}
	var once atomic.Bool
	release = func() {
		if once.CompareAndSwap(false, true) {
			close(gate)
		}
	}
	t.Cleanup(release)
	return started, release
}

// awaitStarts waits for n simulations to begin.
func awaitStarts(t *testing.T, started chan struct{}, n int) {
	t.Helper()
	ctx := watchdog(t)
	for i := 0; i < n; i++ {
		select {
		case <-started:
		case <-ctx.Done():
			t.Fatalf("only %d of %d simulations started", i, n)
		}
	}
}

// postAdmit submits body with the admit-now header.
func postAdmit(t *testing.T, ts *httptest.Server, body string) (*http.Response, JobStatus) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(AdmitHeader, AdmitNow)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	return resp, st
}

// wantRefused checks an admit-now refusal: 429 with the given backlog.
func wantRefused(t *testing.T, resp *http.Response, backlog int) {
	t.Helper()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("admit-now status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get(BacklogHeader); got != strconv.Itoa(backlog) {
		t.Fatalf("%s = %q, want %d", BacklogHeader, got, backlog)
	}
}

func runBody(seed int) string {
	return `{"workload":"ubench.tp_small","calls":1000,"seed":` + strconv.Itoa(seed) + `}`
}

// TestAdmitNowRefusedWhileBusy: with the only worker running a job, an
// admit-now miss is refused with the backlog ahead of it — the running job,
// then the queued one too — and leaves no job behind, while a plain
// submission still queues. Once the worker is free admit-now starts the job.
func TestAdmitNowRefusedWhileBusy(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	started, release := gateSims(t, svc)

	resp, running := postJob(t, ts, runBody(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	awaitStarts(t, started, 1)

	resp, _ = postAdmit(t, ts, runBody(2))
	wantRefused(t, resp, 1)

	resp, queued := postJob(t, ts, runBody(3))
	if resp.StatusCode != http.StatusAccepted || queued.State != StateQueued {
		t.Fatalf("plain submit while busy: %d %s, want 202 queued", resp.StatusCode, queued.State)
	}
	resp, _ = postAdmit(t, ts, runBody(2))
	wantRefused(t, resp, 2)
	if got := svc.Registry().Snapshot().Value("simsvc.jobs.submitted"); got != 2 {
		t.Fatalf("simsvc.jobs.submitted = %v after two refusals, want 2", got)
	}

	release()
	for _, id := range []string{running.ID, queued.ID} {
		if st := pollTerminal(t, ts, id); st.State != StateDone {
			t.Fatalf("job %s: %s", id, st.State)
		}
	}
	resp, st := postAdmit(t, ts, runBody(2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("admit-now on an idle node: %d, want 202", resp.StatusCode)
	}
	if st := pollTerminal(t, ts, st.ID); st.State != StateDone {
		t.Fatalf("admitted job: %s", st.State)
	}
}

// TestAdmitNowCountsBorrowedCells: an experiment whose cells hold both
// workers — its own and a borrowed one — leaves no worker free, so an
// admit-now miss is refused even though the queue is empty.
func TestAdmitNowCountsBorrowedCells(t *testing.T) {
	withProcs(t, 4)
	svc, ts := newTestServer(t, Config{Workers: 2})
	started, release := gateSims(t, svc)

	resp, exp := postJob(t, ts, `{"experiment":"fig13","calls":600}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("experiment submit: %d", resp.StatusCode)
	}
	awaitStarts(t, started, 2)
	if h := svc.Health(); h.Busy != 2 || h.QueueDepth != 0 {
		t.Fatalf("health with cells on both workers: %+v", h)
	}
	resp, _ = postAdmit(t, ts, runBody(4))
	wantRefused(t, resp, 2)

	release()
	if st := pollTerminal(t, ts, exp.ID); st.State != StateDone {
		t.Fatalf("experiment: %s", st.State)
	}
}

// TestAdmitNowServesHitsWhileBusy: memory, disk and peer-fill hits are all
// answered while the only worker is busy. A peer-filled report lands in
// the memory tier only; a hand-off PUT is written to disk.
func TestAdmitNowServesHitsWhileBusy(t *testing.T) {
	dir := t.TempDir()
	peerReport := []byte(`{"from":"peer"}`)
	peerKey := specKeyOf(t, runBody(30))
	var fills atomic.Int32
	svc, ts := newTestServer(t, Config{
		Workers:  1,
		CacheDir: dir,
		PeerFill: func(key string) ([]byte, bool) {
			if key != peerKey {
				return nil, false
			}
			fills.Add(1)
			return peerReport, true
		},
	})
	memJob := submitWait(t, svc, mustDecode(t, runBody(10)))
	// A report another process left on disk, absent from memory.
	diskReport := []byte(`{"from":"disk"}`)
	other, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	other.Put(specKeyOf(t, runBody(20)), diskReport)

	started, release := gateSims(t, svc)
	defer release()
	postJob(t, ts, runBody(1))
	awaitStarts(t, started, 1)

	files := cacheFiles(t, dir)
	for _, c := range []struct {
		name, body string
		want       []byte
	}{
		{"memory", runBody(10), memJob.Report},
		{"disk", runBody(20), diskReport},
		{"peer", runBody(30), peerReport},
		{"peer again", runBody(30), peerReport},
	} {
		resp, st := postAdmit(t, ts, c.body)
		if resp.StatusCode != http.StatusOK || !st.Cached {
			t.Fatalf("%s hit while busy: status %d cached %v, want 200 cached", c.name, resp.StatusCode, st.Cached)
		}
		if !compactJSONEqual(t, st.Report, c.want) {
			t.Fatalf("%s hit returned %s", c.name, st.Report)
		}
	}
	if n := fills.Load(); n != 1 {
		t.Errorf("peer fill consulted %d times, want 1 (the fill is kept in memory)", n)
	}
	if got := cacheFiles(t, dir); got != files {
		t.Errorf("disk cache went from %d to %d files on hits and a peer fill, want unchanged", files, got)
	}

	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/cache/"+specKeyOf(t, runBody(40)), bytes.NewReader([]byte(`{"from":"handoff"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hand-off PUT: %d", resp.StatusCode)
	}
	if got := cacheFiles(t, dir); got != files+1 {
		t.Errorf("hand-off PUT left %d disk files, want %d", got, files+1)
	}
}

func mustDecode(t *testing.T, body string) JobSpec {
	t.Helper()
	spec, err := DecodeSpec([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func specKeyOf(t *testing.T, body string) string {
	t.Helper()
	c, err := mustDecode(t, body).Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	return c.Key()
}

// cacheFiles counts the report files in a disk cache directory.
func cacheFiles(t *testing.T, dir string) int {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return len(m)
}

func compactJSONEqual(t *testing.T, a, b []byte) bool {
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
