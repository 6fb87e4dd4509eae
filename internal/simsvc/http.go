package simsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mallacc/internal/faults"
	"mallacc/internal/retry"
	"mallacc/internal/telemetry"
)

// Handler returns the service's HTTP JSON API:
//
//	POST   /v1/jobs      submit a JobSpec; 200 done (cache hit), 202 queued,
//	                     400 invalid spec (including a trace:<key> this
//	                     node's trace store does not hold), 429 queue full
//	                     (Retry-After set), 503 draining. With
//	                     "X-Mallacc-Admit: now" a miss is admitted only if a
//	                     worker can start it at once; otherwise 429 with
//	                     X-Mallacc-Backlog, the jobs that would be ahead
//	GET    /v1/jobs/{id} job status, report included once done
//	GET    /v1/jobs/{id}/events
//	                     live progress stream over Server-Sent Events;
//	                     finished jobs replay their full stream and close
//	DELETE /v1/jobs/{id} cancel; 409 error body when already finished
//	POST   /v1/traces    record a TraceSpec's allocation stream into the
//	                     trace store; returns the replayable trace:<key>
//	GET    /v1/cache/{key}
//	                     raw cached report bytes for a job key, 404 on
//	                     miss — the fleet's peer cache-fill endpoint
//	PUT    /v1/cache/{key}
//	                     store report bytes under a job key — the receiving
//	                     side of a fleet drain hand-off
//	GET    /v1/healthz   liveness + occupancy: the Health document
//	GET    /v1/metrics   telemetry snapshot: JSON (compact map form) by
//	                     default, OpenMetrics text exposition with
//	                     ?format=openmetrics or an Accept header naming it
//
// Every handler passes the simsvc.http injection point first, so the
// chaos harness can fault whole requests before they reach the service.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/traces", s.handleRecordTrace)
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	mux.HandleFunc("PUT /v1/cache/{key}", s.handleCachePut)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return faultsMiddleware(mux)
}

// faultsMiddleware fails requests at the simsvc.http injection point:
// an injected fault becomes a 500 (permanent class) or a 503 with
// Retry-After (transient class, the default) before the mux ever sees
// the request. Latency-mode rules just delay inside Inject.
func faultsMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := faults.Inject(faults.PointHTTP); err != nil {
			status := http.StatusInternalServerError
			if retry.IsTransient(err) {
				status = http.StatusServiceUnavailable
				w.Header().Set("Retry-After", "1")
			}
			writeError(w, status, err)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// AdmitHeader set to AdmitNow on POST /v1/jobs asks for admit-now
// submission; a refusal carries the node's backlog in BacklogHeader.
const (
	AdmitHeader   = "X-Mallacc-Admit"
	AdmitNow      = "now"
	BacklogHeader = "X-Mallacc-Backlog"
)

// httpError is the error document every non-2xx response carries.
type httpError struct {
	Error string `json:"error"`
}

// writeError writes the shared error document. Every non-2xx response in
// this API goes through here, so clients can always decode {"error": ...}.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, httpError{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	// Every /v1 response reflects live state (job tables, occupancy,
	// counters); an intermediary replaying a stale body would lie.
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, errors.New("read body: "+err.Error()))
		return
	}
	spec, err := DecodeSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.submit(spec, r.Header.Get(AdmitHeader) == AdmitNow)
	var busy *busyError
	switch {
	case err == nil:
	case errors.Is(err, ErrInvalidSpec):
		writeError(w, http.StatusBadRequest, err)
		return
	case errors.As(err, &busy):
		w.Header().Set(BacklogHeader, strconv.Itoa(busy.Backlog))
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	default:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	status := http.StatusAccepted
	if st.State.Terminal() {
		status = http.StatusOK
	}
	writeJSON(w, status, st)
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, st)
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrJobFinished):
		// A finished job cannot be canceled: like every other failure this
		// returns the error document, not the job body a client would have
		// to sniff for.
		writeError(w, http.StatusConflict, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// handleCacheGet serves raw cached report bytes by job key — the fleet's
// peer cache-fill endpoint. It only ever reads the local cache: a miss is
// a plain 404 (the asking node recomputes), never a recursive fill, so a
// fill chain can't loop through the fleet.
func (s *Service) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !cacheKeyOK(key) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("bad cache key %q (want 64 lowercase hex chars)", key))
		return
	}
	b, ok := s.cache.Get(key)
	if !ok {
		s.peerNotFound.Add(1)
		writeError(w, http.StatusNotFound, fmt.Errorf("no cached report for key %s", key))
		return
	}
	s.peerServed.Add(1)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// maxCachePutBytes bounds one handed-off report; matches the fleet's
// peer-fill response bound.
const maxCachePutBytes = 16 << 20

// handleCachePut stores raw report bytes under a job key — the receiving
// side of a drain hand-off: a departing node pushes each cached report to
// its new ring owner so the work is never recomputed. Only syntactically
// valid JSON under a well-formed content address is accepted; the body is
// stored verbatim, so handed-off bytes serve back byte-identically.
func (s *Service) handleCachePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !cacheKeyOK(key) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("bad cache key %q (want 64 lowercase hex chars)", key))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCachePutBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, errors.New("read body: "+err.Error()))
		return
	}
	if !json.Valid(body) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cache value for %s is not valid JSON", key))
		return
	}
	s.cache.Put(key, body)
	s.peerStored.Add(1)
	writeJSON(w, http.StatusOK, struct {
		Key   string `json:"key"`
		Bytes int    `json:"bytes"`
	}{Key: key, Bytes: len(body)})
}

// cacheKeyOK reports whether key looks like a job content address (hex
// SHA-256). Rejecting anything else keeps arbitrary strings out of the
// cache's disk-path namespace.
func cacheKeyOK(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

// handleMetrics negotiates the snapshot format: the explicit ?format query
// parameter wins, then an Accept header naming the OpenMetrics media type;
// JSON stays the default so existing scrapers see byte-identical output.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		format = "openmetrics"
	}
	switch format {
	case "", "json":
		writeJSON(w, http.StatusOK, s.reg.Snapshot())
	case "openmetrics":
		w.Header().Set("Content-Type", telemetry.OpenMetricsContentType)
		w.Header().Set("Cache-Control", "no-store")
		w.WriteHeader(http.StatusOK)
		w.Write(telemetry.OpenMetrics(s.reg.Snapshot()))
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown metrics format %q (want json or openmetrics)", format))
	}
}

// DefaultSSEHeartbeat keeps idle event streams alive through proxies.
const DefaultSSEHeartbeat = 15 * time.Second

// handleEvents streams a job's progress events as Server-Sent Events. The
// stream always replays from the start (event ids are stable, so clients
// dedupe on reconnect), tails live jobs until their terminal event, and
// sends comment heartbeats while idle. Finished jobs replay in full and
// the stream closes.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	log, err := s.Events(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported by connection"))
		return
	}
	s.sseStreams.Add(1)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	heartbeat := time.NewTicker(s.sseHeartbeat)
	defer heartbeat.Stop()
	next := 0
	for {
		events, closed, wake := log.snapshotFrom(next)
		for _, ev := range events {
			if err := writeSSE(w, ev); err != nil {
				return
			}
		}
		next += len(events)
		if len(events) > 0 {
			flusher.Flush()
		}
		if closed {
			return
		}
		select {
		case <-wake:
		case <-heartbeat.C:
			// Comment lines are ignored by EventSource parsers but keep
			// the connection from idling out.
			if _, err := io.WriteString(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE frames one event: the sequence number is the SSE id (resume
// cursor), the type routes addEventListener, and the data line carries the
// full JobEvent document.
func writeSSE(w io.Writer, ev JobEvent) error {
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, b)
	return err
}

// handleRecordTrace captures a workload's allocation stream server-side
// and returns the content key it replays under.
func (s *Service) handleRecordTrace(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, errors.New("read body: "+err.Error()))
		return
	}
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	var spec TraceSpec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: %v", ErrInvalidSpec, err))
		return
	}
	key, tr, err := s.traces.Record(spec)
	switch {
	case err == nil:
	case errors.Is(err, ErrInvalidSpec):
		writeError(w, http.StatusBadRequest, err)
		return
	default:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, TraceRecord{Key: key, Workload: TraceKeyName(key), Events: len(tr.Events)})
}

// TraceRecord answers POST /v1/traces: the recorded trace's content key,
// the trace:<key> workload name that replays it, and its event count.
type TraceRecord struct {
	Key      string `json:"key"`
	Workload string `json:"workload"`
	Events   int    `json:"events"`
}
