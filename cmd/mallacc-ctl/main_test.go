package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mallacc/internal/simsvc"
)

// TestClientHonorsRetryAfter: a coordinator that throttles with
// Retry-After: 1 must hold the client back a full second before the retry
// that succeeds, instead of the backoff's 100 ms-scale jitter.
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
	if err := newClient(srv.URL).doJSON(context.Background(), http.MethodGet, "/v1/healthz", nil, &out); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Errorf("retried after %v, before the server's Retry-After of 1s", elapsed)
	}
	if n := requests.Load(); n != 2 || out.Status != "ok" {
		t.Errorf("%d requests, status %q; want 2 requests ending in ok", n, out.Status)
	}
}

// TestAwaitWaitsOnEvents: a job that turns done 300 ms after submit is
// waited for on its event stream, so the wait costs exactly one status
// GET, where a 100 ms poll clock would spend about three.
func TestAwaitWaitsOnEvents(t *testing.T) {
	done := time.Now().Add(300 * time.Millisecond)
	var gets atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		time.Sleep(time.Until(done))
		fmt.Fprint(w, "id: 1\nevent: done\ndata: {\"type\":\"done\"}\n\n")
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		state := simsvc.StateRunning
		if !time.Now().Before(done) {
			state = simsvc.StateDone
		}
		fmt.Fprintf(w, `{"id":"j1","state":%q}`, state)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var st jobStatus
	st.ID, st.State = "j1", simsvc.StateQueued
	st, err := newClient(srv.URL).await(context.Background(), st, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != simsvc.StateDone {
		t.Fatalf("await returned state %s, want done", st.State)
	}
	if n := gets.Load(); n != 1 {
		t.Errorf("await made %d status GETs, want 1", n)
	}
}
