package simsvc

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mallacc/internal/faults"
	"mallacc/internal/telemetry"
)

// TestClientHonorsRetryAfter: a server that throttles with Retry-After: 1
// must hold the client back a full second before the retry that
// succeeds, instead of the backoff's 100 ms-scale jitter.
func TestClientHonorsRetryAfter(t *testing.T) {
	var requests atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if requests.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"queue full"}`))
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer srv.Close()

	var out struct {
		Status string `json:"status"`
	}
	start := time.Now()
	if err := NewClient(srv.URL).Do(context.Background(), http.MethodGet, "/v1/healthz", nil, &out); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Errorf("retried after %v, before the server's Retry-After of 1s", elapsed)
	}
	if n := requests.Load(); n != 2 || out.Status != "ok" {
		t.Errorf("%d requests, status %q; want 2 requests ending in ok", n, out.Status)
	}
}

// jobServer fakes one job, j1, that turns done at the given time. Its
// event stream answers with eventsStatus; 200 streams until done and then
// writes the terminal event. It counts the status GETs it serves.
func jobServer(t *testing.T, done time.Time, eventsStatus int) (*httptest.Server, *atomic.Int32) {
	var gets atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j1/events", func(w http.ResponseWriter, r *http.Request) {
		if eventsStatus != http.StatusOK {
			writeError(w, eventsStatus, errors.New("no stream"))
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		time.Sleep(time.Until(done))
		fmt.Fprint(w, "id: 1\nevent: done\ndata: {\"type\":\"done\"}\n\n")
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		state := StateRunning
		if !time.Now().Before(done) {
			state = StateDone
		}
		fmt.Fprintf(w, `{"id":"j1","state":%q}`, state)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, &gets
}

// TestClientWaitsOnEvents: a job that turns done 300 ms after submit is
// waited for on its event stream, so the wait costs exactly one status
// GET, where a 100 ms poll clock would spend about three.
func TestClientWaitsOnEvents(t *testing.T) {
	srv, gets := jobServer(t, time.Now().Add(300*time.Millisecond), http.StatusOK)
	st, err := NewClient(srv.URL).Wait(context.Background(), JobStatus{ID: "j1", State: StateQueued}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("Wait returned state %s, want done", st.State)
	}
	if n := gets.Load(); n != 1 {
		t.Errorf("Wait made %d status GETs, want 1", n)
	}
}

// TestClientWaitFallsBackToPolling: an event stream the server refuses
// (shedding with 503, or a proxy that does not know it with 404) degrades
// Wait to polling, which still returns the terminal status.
func TestClientWaitFallsBackToPolling(t *testing.T) {
	for _, code := range []int{http.StatusServiceUnavailable, http.StatusNotFound} {
		t.Run(http.StatusText(code), func(t *testing.T) {
			srv, gets := jobServer(t, time.Now().Add(300*time.Millisecond), code)
			st, err := NewClient(srv.URL).Wait(context.Background(), JobStatus{ID: "j1", State: StateQueued}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != StateDone {
				t.Fatalf("Wait returned state %s, want done", st.State)
			}
			if n := gets.Load(); n < 2 {
				t.Errorf("Wait made %d status GETs, want at least 2 polls", n)
			}
		})
	}
}

// TestClientWaitHonorsCancel: a context canceled while the fallback poll
// sleeps ends Wait at once. The cancel lands in the fifth sleep (1.6 s,
// after 100+200+400+800 ms), so a poll that ignored the context would
// return about 1.4 s late.
func TestClientWaitHonorsCancel(t *testing.T) {
	srv, _ := jobServer(t, time.Now().Add(time.Hour), http.StatusServiceUnavailable)
	const cancelAfter = 1700 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(cancelAfter, cancel)
	start := time.Now()
	_, err := NewClient(srv.URL).Wait(ctx, JobStatus{ID: "j1", State: StateQueued}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait returned %v, want context.Canceled", err)
	}
	if late := time.Since(start) - cancelAfter; late > 300*time.Millisecond {
		t.Errorf("Wait returned %v after the cancel", late)
	}
}

// TestClientRetriesInjectedFault: one remote.http fault costs exactly one
// retried attempt: two checks of the point, one injection, and one
// request that reaches the server.
func TestClientRetriesInjectedFault(t *testing.T) {
	reg, err := faults.New(faults.Spec{Seed: 1, Rules: []faults.RuleSpec{{Point: faults.PointRemoteHTTP, Count: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.NewRegistry()
	reg.RegisterMetrics(tel)
	faults.Activate(reg)
	t.Cleanup(faults.Deactivate)

	srv, gets := jobServer(t, time.Now(), http.StatusOK)
	st, err := NewClient(srv.URL).Job(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("Job returned state %s, want done", st.State)
	}
	snap := tel.Snapshot()
	checked := snap.Value("faults.checked." + faults.PointRemoteHTTP)
	injected := snap.Value("faults.injected." + faults.PointRemoteHTTP)
	if checked != 2 || injected != 1 || gets.Load() != 1 {
		t.Errorf("checked %v, injected %v, server saw %d GETs; want 2, 1, 1", checked, injected, gets.Load())
	}
}
