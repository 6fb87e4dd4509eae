package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"mallacc"
	"mallacc/internal/faults"
	"mallacc/internal/harness"
	"mallacc/internal/progress"
	"mallacc/internal/retry"
	"mallacc/internal/simsvc"
)

// apiClient talks to a mallacc-serve daemon with retries: transport
// errors and retryable statuses (408/429/5xx) are retried with jittered
// exponential backoff under a wall-clock budget, honoring the server's
// Retry-After hints. 4xx errors surface immediately — resending a bad
// spec cannot fix it.
type apiClient struct {
	base   string
	http   *http.Client
	policy retry.Policy
}

func newAPIClient(base string) *apiClient {
	return &apiClient{
		base: base,
		http: &http.Client{Timeout: 30 * time.Second},
		policy: retry.Policy{
			MaxAttempts: 6,
			Backoff:     retry.NewBackoff(100*time.Millisecond, 2*time.Second, 2),
			Budget:      45 * time.Second,
		},
	}
}

// doStatus performs one logical API call (possibly several attempts) and
// decodes the job-status document. Each attempt passes the remote.http
// injection point first, so chaos runs can fault the client side of the
// hop as well as the server side.
func (c *apiClient) doStatus(ctx context.Context, method, url string, body []byte) (mallacc.JobStatus, error) {
	var st mallacc.JobStatus
	err := c.policy.Do(ctx, func(int) error {
		if err := faults.Inject(faults.PointRemoteHTTP); err != nil {
			return err
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return retry.Permanent(err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return retry.Transient(err)
		}
		s, err := decodeStatus(resp)
		if err != nil {
			return err
		}
		st = s
		return nil
	})
	return st, err
}

// normalizeBase canonicalizes the daemon base URL.
func normalizeBase(base string) string {
	base = strings.TrimRight(base, "/")
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	return base
}

// runRemote submits the run as a job to a mallacc-serve daemon, waits for
// it — tailing its live progress stream when follow is set — and renders
// the returned report in the requested format.
func runRemote(base, wname, variant, backend string, entries, calls int, seed uint64, cores int, format string, metrics, follow bool) error {
	base = normalizeBase(base)
	spec := mallacc.JobSpec{
		Workload:  wname,
		Variant:   variant,
		Backend:   backend,
		MCEntries: entries,
		Cores:     cores,
		Calls:     calls,
		Seed:      seed,
		Metrics:   metrics,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	client := newAPIClient(base)
	ctx := context.Background()
	st, err := client.doStatus(ctx, http.MethodPost, base+"/v1/jobs", body)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}

	if follow && !st.State.Terminal() {
		// Tail the SSE stream until the server writes the terminal event
		// and closes. A streaming failure degrades to the poll loop below
		// rather than failing the run.
		if err := followEvents(ctx, base, st.ID); err != nil {
			fmt.Fprintf(os.Stderr, "event stream: %v (falling back to polling)\n", err)
		}
	}

	for !st.State.Terminal() {
		time.Sleep(100 * time.Millisecond)
		st, err = client.doStatus(ctx, http.MethodGet, base+"/v1/jobs/"+st.ID, nil)
		if err != nil {
			return fmt.Errorf("poll: %w", err)
		}
	}
	if st.State != simsvc.StateDone {
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	if st.Cached {
		fmt.Fprintf(os.Stderr, "job %s served from cache (key %s)\n", st.ID, st.Key)
	}

	var rep harness.Report
	if err := json.Unmarshal(st.Report, &rep); err != nil {
		return fmt.Errorf("decode report: %w", err)
	}
	b, err := rep.Render(format)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(b)
	return err
}

// followEvents subscribes to a job's SSE stream and renders each event to
// stderr (stdout stays reserved for the report). The server closes the
// stream after the terminal event; the dedicated client has no overall
// timeout because a healthy stream is open for the job's whole runtime.
func followEvents(ctx context.Context, base, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if len(data) > 0 {
				renderEvent(data)
				data = nil
			}
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		}
		// id:/event: lines and ": heartbeat" comments need no handling —
		// the data document carries the sequence number and type.
	}
	return sc.Err()
}

// renderEvent pretty-prints one SSE data document.
func renderEvent(data []byte) {
	var ev simsvc.JobEvent
	if err := json.Unmarshal(data, &ev); err != nil {
		fmt.Fprintf(os.Stderr, "event: %s\n", data)
		return
	}
	switch ev.Type {
	case simsvc.EventProgress:
		var sn progress.Snapshot
		if err := json.Unmarshal(ev.Data, &sn); err != nil {
			fmt.Fprintf(os.Stderr, "progress: %s\n", ev.Data)
			return
		}
		line := fmt.Sprintf("progress #%d: %.1fM cycles, %.1fM uops, %d mallocs, %d frees",
			sn.Seq, float64(sn.Cycles)/1e6, float64(sn.Instructions)/1e6, sn.MallocCalls, sn.FreeCalls)
		if sn.MCHitRate > 0 {
			line += fmt.Sprintf(", mc hit %.1f%%", 100*sn.MCHitRate)
		}
		fmt.Fprintln(os.Stderr, line)
	default:
		msg := "job " + ev.Type
		if len(ev.Data) > 0 {
			msg += ": " + string(ev.Data)
		}
		fmt.Fprintln(os.Stderr, msg)
	}
}

// recordRemote asks the daemon to record a trace server-side and prints
// the replayable trace:<key> workload name.
func recordRemote(base string, spec simsvc.TraceSpec) error {
	base = normalizeBase(base)
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	client := newAPIClient(base)
	var out struct {
		Key      string `json:"key"`
		Workload string `json:"workload"`
		Events   int    `json:"events"`
	}
	err = client.policy.Do(context.Background(), func(int) error {
		if err := faults.Inject(faults.PointRemoteHTTP); err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodPost, base+"/v1/traces", bytes.NewReader(body))
		if err != nil {
			return retry.Permanent(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.http.Do(req)
		if err != nil {
			return retry.Transient(err)
		}
		b, err := retry.ReadResponse(resp, 1<<20)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &out); err != nil {
			return retry.Transient(err)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("record trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "daemon recorded %d events\n", out.Events)
	fmt.Println(out.Workload)
	return nil
}

// decodeStatus reads one API response into a job status; ReadResponse
// classifies a failed one for the retry loop.
func decodeStatus(resp *http.Response) (mallacc.JobStatus, error) {
	body, err := retry.ReadResponse(resp, 16<<20)
	if err != nil {
		return mallacc.JobStatus{}, err
	}
	var st mallacc.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		// A torn 2xx body is a transfer problem, not a spec problem.
		return mallacc.JobStatus{}, retry.Transient(err)
	}
	return st, nil
}
