package simsvc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"mallacc/internal/faults"
	"mallacc/internal/progress"
	"mallacc/internal/retry"
)

// clientPolicy is the one retry policy of the job-API client: transport
// errors and retryable statuses (408/429/5xx) back off with jitter under
// a wall-clock budget, honoring the server's Retry-After hints; 4xx
// surfaces at once, since resending a bad spec cannot fix it. Its backoff
// ceilings also pace Wait's fallback poll.
var clientPolicy = retry.Policy{
	MaxAttempts: 6,
	Backoff:     retry.NewBackoff(100*time.Millisecond, 2*time.Second, 2),
	Budget:      45 * time.Second,
}

// Client speaks the job API that Handler serves and a fleet coordinator
// relays: submit a spec, get a job, wait for it on its event stream,
// record a trace, and any other JSON call through Do. mallacc-ctl,
// mallacc-sim -serve, the chaos harness and the webserver example all
// drive the API through it.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for the API at base ("host:port" or a URL;
// a missing scheme means http).
func NewClient(base string) *Client {
	base = strings.TrimRight(base, "/")
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	return &Client{base: base, http: &http.Client{Timeout: 30 * time.Second}}
}

// Do performs one logical JSON call, retried under the client policy, and
// decodes the response into out (unless out is nil). Each attempt passes
// the remote.http injection point first, so chaos runs can fault the
// client side of the hop as well as the server side.
func (c *Client) Do(ctx context.Context, method, path string, body []byte, out any) error {
	return clientPolicy.Do(ctx, func(int) error {
		if err := faults.Inject(faults.PointRemoteHTTP); err != nil {
			return err
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
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
		b, err := retry.ReadResponse(resp, 16<<20)
		if err != nil || out == nil {
			return err
		}
		if err := json.Unmarshal(b, out); err != nil {
			// A torn 2xx body is a transfer problem, not a spec problem.
			return retry.Transient(err)
		}
		return nil
	})
}

// Submit posts spec as a new job.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	var st JobStatus
	body, err := json.Marshal(spec)
	if err == nil {
		err = c.Do(ctx, http.MethodPost, "/v1/jobs", body, &st)
	}
	return st, err
}

// Job fetches a job's status, report included once done.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.Do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// RecordTrace asks the server to record spec's allocation stream into its
// trace store.
func (c *Client) RecordTrace(ctx context.Context, spec TraceSpec) (TraceRecord, error) {
	var rec TraceRecord
	body, err := json.Marshal(spec)
	if err == nil {
		err = c.Do(ctx, http.MethodPost, "/v1/traces", body, &rec)
	}
	return rec, err
}

// Wait returns st's job once it is terminal. It reads the job's event
// stream to its end, which the server closes after the terminal event,
// then fetches the status once. If the stream fails, or the status is not
// terminal after it, Wait polls on the policy's backoff ceilings until the
// job ends or ctx does. Each event is rendered to echo unless it is nil.
func (c *Client) Wait(ctx context.Context, st JobStatus, echo io.Writer) (JobStatus, error) {
	if st.State.Terminal() {
		return st, nil
	}
	id := st.ID
	var err error
	if serr := c.stream(ctx, id, echo); serr != nil {
		if echo != nil {
			fmt.Fprintf(echo, "event stream: %v (falling back to polling)\n", serr)
		}
	} else if st, err = c.Job(ctx, id); err != nil {
		return st, fmt.Errorf("poll %s: %w", id, err)
	}
	for i := 0; !st.State.Terminal(); i++ {
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(clientPolicy.Backoff.Ceiling(i)):
		}
		if st, err = c.Job(ctx, id); err != nil {
			return st, fmt.Errorf("poll %s: %w", id, err)
		}
	}
	return st, nil
}

// stream reads a job's SSE stream until the server closes it, rendering
// each event to echo unless it is nil. It takes no overall timeout: a
// healthy stream stays open for the job's whole runtime.
func (c *Client) stream(ctx context.Context, id string, echo io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		// id:/event: lines and ": heartbeat" comments need no handling:
		// the data document carries the sequence number and type.
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok && echo != nil {
			renderEvent(echo, []byte(data))
		}
	}
	return sc.Err()
}

// renderEvent writes one SSE data document as a line of text.
func renderEvent(w io.Writer, data []byte) {
	var ev JobEvent
	if err := json.Unmarshal(data, &ev); err != nil {
		fmt.Fprintf(w, "event: %s\n", data)
		return
	}
	if ev.Type != EventProgress {
		msg := "job " + ev.Type
		if len(ev.Data) > 0 {
			msg += ": " + string(ev.Data)
		}
		fmt.Fprintln(w, msg)
		return
	}
	var sn progress.Snapshot
	if err := json.Unmarshal(ev.Data, &sn); err != nil {
		fmt.Fprintf(w, "progress: %s\n", ev.Data)
		return
	}
	line := fmt.Sprintf("progress #%d: %.1fM cycles, %.1fM uops, %d mallocs, %d frees",
		sn.Seq, float64(sn.Cycles)/1e6, float64(sn.Instructions)/1e6, sn.MallocCalls, sn.FreeCalls)
	if sn.MCHitRate > 0 {
		line += fmt.Sprintf(", mc hit %.1f%%", 100*sn.MCHitRate)
	}
	fmt.Fprintln(w, line)
}
