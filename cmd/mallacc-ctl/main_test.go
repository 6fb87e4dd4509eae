package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
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
