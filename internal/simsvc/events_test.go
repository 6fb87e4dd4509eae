package simsvc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mallacc/internal/progress"
	"mallacc/internal/telemetry"
)

func TestEventLogSealAndReplay(t *testing.T) {
	l := newEventLog()
	l.append(EventProgress, progressData(map[string]int{"seq": 0}))
	l.append(EventProgress, progressData(map[string]int{"seq": 1}))
	events, closed, _ := l.snapshotFrom(0)
	if len(events) != 2 || closed {
		t.Fatalf("open log: %d events, closed=%v", len(events), closed)
	}
	if events[0].Seq != 0 || events[1].Seq != 1 {
		t.Fatalf("bad sequence stamps: %+v", events)
	}

	// Sealing appends the terminal event; later appends are dropped (a
	// timed-out run still holds its reporter).
	l.close(EventDone, nil)
	l.append(EventProgress, nil)
	l.close(EventFailed, nil)
	events, closed, _ = l.snapshotFrom(0)
	if len(events) != 3 || !closed || events[2].Type != EventDone {
		t.Fatalf("sealed log grew or lost its terminal event: %+v", events)
	}

	// Tail cursors clamp and alias safely.
	tail, _, _ := l.snapshotFrom(2)
	if len(tail) != 1 || tail[0].Type != EventDone {
		t.Fatalf("tail from 2: %+v", tail)
	}
	if over, _, _ := l.snapshotFrom(99); len(over) != 0 {
		t.Fatalf("past-end cursor returned events: %+v", over)
	}
}

// readSSEEvents consumes an SSE body until the server closes the stream,
// returning the decoded data documents in order.
func readSSEEvents(t *testing.T, body io.Reader) []JobEvent {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var out []JobEvent
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev JobEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("undecodable event %q: %v", line, err)
		}
		out = append(out, ev)
	}
	return out
}

// TestSSEStreamsProgressAndDone is the streaming tentpole's core promise: a
// subscriber sees the job's progress events (at least two at a fine cadence)
// followed by the terminal event, and the server then closes the stream.
func TestSSEStreamsProgressAndDone(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, ProgressEvery: 5_000})
	_, st := postJob(t, ts, `{"workload":"ubench.tp_small","calls":4000,"seed":3}`)
	if st.ID == "" {
		t.Fatalf("no job id: %+v", st)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q", cc)
	}

	events := readSSEEvents(t, resp.Body)
	var progressN int
	for _, ev := range events {
		if ev.Type == EventProgress {
			progressN++
		}
	}
	if progressN < 2 {
		t.Fatalf("want >= 2 progress events, got %d (%+v)", progressN, events)
	}
	last := events[len(events)-1]
	if last.Type != EventDone {
		t.Fatalf("stream did not end with done: %+v", last)
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

// TestSSEFinishedJobReplays verifies late subscribers: a stream opened after
// the job finished replays the full event history and closes immediately.
func TestSSEFinishedJobReplays(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, ProgressEvery: 5_000})
	_, st := postJob(t, ts, `{"workload":"ubench.tp_small","calls":4000,"seed":4}`)
	if _, err := svc.Await(watchdog(t), st.ID); err != nil {
		t.Fatal(err)
	}

	done := make(chan []JobEvent, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
		if err != nil {
			done <- nil
			return
		}
		defer resp.Body.Close()
		done <- readSSEEvents(t, resp.Body)
	}()
	select {
	case events := <-done:
		if len(events) < 3 || events[len(events)-1].Type != EventDone {
			t.Fatalf("replay incomplete: %+v", events)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("finished-job stream did not close")
	}

	if http404, err := http.Get(ts.URL + "/v1/jobs/j99999999/events"); err != nil {
		t.Fatal(err)
	} else {
		http404.Body.Close()
		if http404.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job events: %d, want 404", http404.StatusCode)
		}
	}
}

// TestSSEClientDisconnect verifies a dropped subscriber cannot wedge the
// server: canceling the request context unblocks the handler.
func TestSSEClientDisconnect(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, ProgressEvery: 5_000})
	_, st := postJob(t, ts, `{"workload":"ubench.tp","calls":500000,"seed":5}`)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	cancel()
	unblocked := make(chan struct{})
	go func() {
		io.Copy(io.Discard, resp.Body)
		close(unblocked)
	}()
	select {
	case <-unblocked:
	case <-time.After(10 * time.Second):
		t.Fatal("read did not unblock after context cancel")
	}
	// Finish the job so Drain in cleanup is quick.
	svc.Cancel(st.ID)
}

// TestProgressEventDeterminism pins the determinism invariant: the same
// spec and seed on two fresh services produce byte-identical event streams
// (same cadence, same payloads), because progress is clocked on simulated
// cycles, not wall time. An experiment job's stream holds too, although
// its cells overlap on two workers: snapshots follow grid order.
func TestProgressEventDeterminism(t *testing.T) {
	run := func(spec JobSpec) []JobEvent {
		svc := newTestService(t, Config{Workers: 2, ProgressEvery: 10_000})
		st := submitWait(t, svc, spec)
		log, err := svc.Events(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		events, closed, _ := log.snapshotFrom(0)
		if !closed {
			t.Fatal("terminal job's event log not sealed")
		}
		return events
	}
	for _, spec := range []JobSpec{
		{Workload: "ubench.gauss", Calls: 3000, Seed: 7},
		{Experiment: "fig13", Calls: 800, Seed: 7},
	} {
		a, b := run(spec), run(spec)
		if len(a) < 3 {
			t.Fatalf("%+v: cadence too coarse for the test: only %d events", spec, len(a))
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%+v: event streams differ:\n%+v\n%+v", spec, a, b)
		}
	}
}

// TestTraceReplayByteIdentity is the capture/replay contract: running
// trace:<key> through the same spec yields a report byte-identical to
// running the source workload directly.
func TestTraceReplayByteIdentity(t *testing.T) {
	svc := newTestService(t, Config{Workers: 2})
	key, tr, err := svc.traces.Record(TraceSpec{Workload: "ubench.gauss", Calls: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("recorded trace is empty")
	}

	direct := submitWait(t, svc, JobSpec{Workload: "ubench.gauss", Calls: 2000, Seed: 7})
	replay := submitWait(t, svc, JobSpec{Workload: TraceKeyName(key), Calls: 2000, Seed: 7})
	if !bytes.Equal(direct.Report, replay.Report) {
		t.Fatalf("trace replay is not byte-identical to its source run:\n%s\n---\n%s",
			direct.Report, replay.Report)
	}
	if direct.Key == replay.Key {
		t.Fatal("trace job aliased the source job's cache key")
	}
}

// TestTraceMissingRefusedAtSubmit: a well-formed trace key the store does
// not hold is bad input, refused at submit like an unknown workload name —
// no job is created and no attempt runs, so a run of such submissions
// leaves the node admitting valid work. A report already cached or
// peer-filled for a trace job is still served without the trace.
func TestTraceMissingRefusedAtSubmit(t *testing.T) {
	missing := JobSpec{Workload: TraceKeyName(strings.Repeat("ab", 32)), Calls: 1000}
	filled := JobSpec{Workload: TraceKeyName(strings.Repeat("cd", 32)), Calls: 1000}
	fc, err := filled.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, Config{
		Workers: 1, MaxAttempts: 3,
		PeerFill: func(key string) ([]byte, bool) {
			return []byte(`{"from":"peer"}`), key == fc.Key()
		},
	})
	var runs atomic.Int32
	runner := svc.sched.cfg.Runner
	svc.sched.cfg.Runner = func(ctx context.Context, spec JobSpec, rep progress.Reporter) ([]byte, error) {
		runs.Add(1)
		return runner(ctx, spec, rep)
	}

	for i := 0; i < 5; i++ {
		if _, err := svc.Submit(missing); !errors.Is(err, ErrInvalidSpec) {
			t.Fatalf("missing-trace submit %d: err = %v, want ErrInvalidSpec", i, err)
		}
	}
	svc.sched.mu.Lock()
	jobs := len(svc.sched.jobs)
	svc.sched.mu.Unlock()
	if jobs != 0 || runs.Load() != 0 {
		t.Fatalf("refused submissions left %d job(s) and %d runner attempt(s)", jobs, runs.Load())
	}

	if st := submitWait(t, svc, JobSpec{Workload: "ubench.gauss", Calls: 1000}); st.State != StateDone {
		t.Fatalf("valid job after refusals: state %s (%s)", st.State, st.Error)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("runner ran %d times, want 1", got)
	}

	st, err := svc.Submit(filled)
	if err != nil || st.State != StateDone || !st.Cached {
		t.Fatalf("peer-filled trace job: state %s cached %v err %v", st.State, st.Cached, err)
	}
}

func TestTraceStoreDiskPersistenceAndQuarantine(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewTraceStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, _, err := s1.Record(TraceSpec{Workload: "ubench.gauss", Calls: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory loads the trace from disk.
	s2, err := NewTraceStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tr, ok := s2.Get(key); !ok || len(tr.Events) == 0 {
		t.Fatal("disk tier did not restore the trace")
	}

	// Corruption is quarantined, not served.
	path := filepath.Join(dir, key+".trace")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := NewTraceStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Get(key); ok {
		t.Fatal("corrupt trace served")
	}
	if s3.quarantined.Load() != 1 {
		t.Fatalf("quarantined = %d, want 1", s3.quarantined.Load())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt file left in place")
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, key+".trace")); err != nil {
		t.Fatalf("quarantine copy missing: %v", err)
	}

	// Re-recording the same spec heals the store.
	key2, _, err := s3.Record(TraceSpec{Workload: "ubench.gauss", Calls: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if key2 != key {
		t.Fatalf("content address changed on re-record: %s vs %s", key2, key)
	}
}

func TestHTTPRecordTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/traces", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	resp, body := post(`{"workload":"ubench.gauss","calls":500,"seed":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("record: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Key      string `json:"key"`
		Workload string `json:"workload"`
		Events   int    `json:"events"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if _, ok := ParseTraceKey(out.Workload); !ok || out.Events == 0 {
		t.Fatalf("bad record response: %+v", out)
	}

	for _, bad := range []string{
		`{"workload":"no.such.workload"}`,
		`{"workload":"trace:` + strings.Repeat("ab", 32) + `"}`,
		`{"workload":"ubench.gauss","bogus":1}`,
		`not json`,
	} {
		if resp, body := post(bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", bad, resp.StatusCode, body)
		}
	}
}

func TestHTTPMetricsFormats(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})

	// Default stays JSON with explicit headers.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	jb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("json Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("json Cache-Control = %q", cc)
	}
	var m map[string]any
	if err := json.Unmarshal(jb, &m); err != nil {
		t.Fatalf("default format is not the JSON snapshot: %v", err)
	}

	// ?format=openmetrics renders the full registry and lints clean.
	resp, err = http.Get(ts.URL + "/v1/metrics?format=openmetrics")
	if err != nil {
		t.Fatal(err)
	}
	om, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.OpenMetricsContentType {
		t.Fatalf("openmetrics Content-Type = %q", ct)
	}
	if err := telemetry.LintOpenMetrics(om); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, om)
	}
	// Every metric is exposed as exactly one family (collisions get a
	// numeric suffix), so the family count must match the registry.
	families := 0
	for _, line := range strings.Split(string(om), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families++
		}
	}
	if n := len(svc.Registry().Snapshot().Metrics); families != n {
		t.Errorf("exposition has %d families for %d registry metrics", families, n)
	}

	// Accept-header negotiation selects OpenMetrics without the query.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/metrics", nil)
	req.Header.Set("Accept", telemetry.OpenMetricsContentType)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.OpenMetricsContentType {
		t.Fatalf("Accept negotiation ignored: Content-Type = %q", ct)
	}

	// Unknown formats are a client error, not a silent default.
	resp, err = http.Get(ts.URL + "/v1/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=xml: %d, want 400", resp.StatusCode)
	}
}

func TestHTTPHealthzObservability(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	var h map[string]any
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatal(err)
	}
	fields := []string{"workers", "busy", "queue_depth", "retrying", "draining"}
	for _, field := range fields {
		if _, ok := h[field]; !ok {
			t.Errorf("healthz missing %q: %s", field, b)
		}
	}
	if len(h) != len(fields) {
		t.Errorf("healthz has %d fields, want %d: %s", len(h), len(fields), b)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("healthz Cache-Control = %q", cc)
	}
}
