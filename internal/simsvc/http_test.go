package simsvc

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := newTestService(t, cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, JobStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	var st JobStatus
	json.Unmarshal(b, &st)
	return resp, st
}

func TestHTTPSubmitPollAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := `{"workload":"ubench.tp_small","calls":2000,"seed":5}`

	resp, st := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	if st.ID == "" || st.Key == "" {
		t.Fatalf("incomplete status: %+v", st)
	}

	// Poll until done.
	deadline := time.Now().Add(30 * time.Second)
	var final JobStatus
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if err := json.Unmarshal(b, &final); err != nil {
			t.Fatalf("bad status document: %v (%s)", err, b)
		}
		if final.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if final.State != StateDone || len(final.Report) == 0 {
		t.Fatalf("final: %+v", final)
	}

	// Resubmit: 200 with the cached report, byte-identical.
	resp2, st2 := postJob(t, ts, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status = %d, want 200", resp2.StatusCode)
	}
	if !st2.Cached || !bytes.Equal(st2.Report, final.Report) {
		t.Fatalf("resubmit not served byte-identically from cache (cached=%v)", st2.Cached)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{"workload":"no.such.workload"}`,
		`{"workload":"ubench.gauss","bogus":true}`,
		`{"workload":"a","workload":"b"}`,
		`not json`,
		`{"calls":-5,"workload":"ubench.gauss"}`,
		// Well-formed, but no trace is stored under the key.
		`{"workload":"trace:` + strings.Repeat("ab", 32) + `"}`,
	} {
		resp, _ := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	// No free workers (a blocking job occupies the only one) and a
	// one-slot queue: the third submission must bounce with 429.
	svc, ts := newTestServer(t, Config{Workers: 1, QueueHighWater: 1})
	_ = svc
	long := `{"experiment":"fig13","calls":60000}`
	r1, _ := postJob(t, ts, long)
	r2, _ := postJob(t, ts, `{"experiment":"fig14","calls":60000}`)
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first: %d", r1.StatusCode)
	}
	// r2 may have been popped already; submit until the queue is provably
	// full or we run out of distinct jobs.
	saw429 := r2.StatusCode == http.StatusTooManyRequests
	for i := 0; !saw429 && i < 8; i++ {
		r, _ := postJob(t, ts, `{"experiment":"fig15","calls":60000,"seed":`+string(rune('1'+i))+`}`)
		saw429 = r.StatusCode == http.StatusTooManyRequests
	}
	if !saw429 {
		t.Fatal("queue never pushed back with 429")
	}
}

func TestHTTPCancelAndNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, st := postJob(t, ts, `{"experiment":"fig13","calls":60000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", dr.StatusCode)
	}

	gr, err := http.Get(ts.URL + "/v1/jobs/j99999999")
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", gr.StatusCode)
	}
}

func TestHTTPHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})

	hr, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	// The document is the scheduler's Health and nothing else.
	var health Health
	dec := json.NewDecoder(hr.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health != (Health{Workers: 3}) {
		t.Fatalf("healthz: %+v", health)
	}

	mr, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("metrics not a JSON object: %v", err)
	}
	if _, ok := snap["simsvc.queue.depth"]; !ok {
		t.Fatal("metrics missing simsvc.queue.depth")
	}
}

func pollTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		var st JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("bad status document: %v (%s)", err, b)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not reach a terminal state", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHTTPCancelFinishedConflict: DELETE on a completed job is a 409 with
// a JSON error body, not a silent success.
func TestHTTPCancelFinishedConflict(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, st := postJob(t, ts, `{"workload":"ubench.tp_small","calls":1000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	pollTerminal(t, ts, st.ID)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	if dr.StatusCode != http.StatusConflict {
		t.Fatalf("cancel finished job: %d, want 409", dr.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(dr.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("conflict body not a JSON error: err=%v body=%+v", err, e)
	}
}

// TestHTTPMethodRouting: wrong methods fall through to 405.
func TestHTTPMethodRouting(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs = %d, want 405", resp.StatusCode)
	}
}
