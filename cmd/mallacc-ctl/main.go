// Command mallacc-ctl operates a simulation fleet through its coordinator
// (mallacc-coord). It covers the day-to-day loop: check membership, submit
// a job, watch its progress, drain a node for maintenance, and run a whole
// sweep grid across the fleet.
//
// Usage:
//
//	mallacc-ctl [-coord URL] status
//	mallacc-ctl [-coord URL] submit [-follow] '{"experiment":"fig13"}'
//	mallacc-ctl [-coord URL] submit -spec @spec.json -out report.json
//	mallacc-ctl [-coord URL] follow n2.j00000001
//	mallacc-ctl [-coord URL] drain n2
//	mallacc-ctl [-coord URL] drain -handoff n2   # push caches to new owners, deregister
//	mallacc-ctl [-coord URL] undrain n2
//	mallacc-ctl [-coord URL] sweep -grid 'kind=run;workload=gauss,tcmalloc;variant=baseline,mallacc;calls=20000' -out reports/
//
// Sweep reports are written as <job-key>.json — content-addressed names, so
// two sweeps over the same grid produce byte-identical directories no
// matter which nodes computed which points (diff -r proves failover
// correctness).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mallacc/internal/fleet"
	"mallacc/internal/retry"
	"mallacc/internal/simsvc"
)

func main() {
	var (
		coord   = flag.String("coord", "http://127.0.0.1:7070", "coordinator base URL (also works against a single mallacc-serve node,\nexcept status/drain/undrain/sweep membership features)")
		timeout = flag.Duration("timeout", 10*time.Minute, "wall-clock budget for one command")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: mallacc-ctl [flags] <status|submit|follow|drain|undrain|sweep> [args]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := newClient(*coord)

	var err error
	switch cmd, rest := args[0], args[1:]; cmd {
	case "status":
		err = cmdStatus(ctx, c)
	case "submit":
		err = cmdSubmit(ctx, c, rest)
	case "follow":
		err = cmdFollow(ctx, c, rest)
	case "drain", "undrain":
		err = cmdDrain(ctx, c, cmd, rest)
	case "sweep":
		err = cmdSweep(ctx, c, rest)
	default:
		fmt.Fprintf(os.Stderr, "mallacc-ctl: unknown command %q\n", cmd)
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mallacc-ctl: %v\n", err)
		os.Exit(1)
	}
}

// client talks to the coordinator with the same retry discipline as the
// mallacc-sim remote client: transport errors and retryable statuses back
// off with jitter, honoring the server's Retry-After hints, and 4xx
// surfaces immediately.
type client struct {
	base   string
	http   *http.Client
	policy retry.Policy
}

func newClient(base string) *client {
	base = strings.TrimRight(base, "/")
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	return &client{
		base: base,
		http: &http.Client{Timeout: 30 * time.Second},
		policy: retry.Policy{
			MaxAttempts: 6,
			Backoff:     retry.NewBackoff(100*time.Millisecond, 2*time.Second, 2),
			Budget:      45 * time.Second,
		},
	}
}

// jobStatus is the coordinator's job document: a node's JobStatus plus the
// owning node name. Against a bare mallacc-serve, Node is simply empty.
type jobStatus struct {
	simsvc.JobStatus
	Node string `json:"node"`
}

// doJSON performs one logical call and decodes the response into out.
func (c *client) doJSON(ctx context.Context, method, path string, body []byte, out any) error {
	return c.policy.Do(ctx, func(int) error {
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
		if err != nil {
			return err
		}
		if out == nil {
			return nil
		}
		if err := json.Unmarshal(b, out); err != nil {
			return retry.Transient(err)
		}
		return nil
	})
}

// cmdStatus renders the fleet membership view: the epoch, and per node its
// membership state (or "draining"), last-heartbeat age, ownership, and
// occupancy.
func cmdStatus(ctx context.Context, c *client) error {
	var h fleet.FleetHealth
	if err := c.doJSON(ctx, http.MethodGet, "/v1/healthz", nil, &h); err != nil {
		return err
	}
	state := "ok"
	if !h.OK {
		state = "DOWN"
	}
	fmt.Printf("fleet %s: %d/%d nodes live (epoch %d)\n", state, h.Live, h.Total, h.Epoch)
	for _, n := range h.Nodes {
		mark := n.State
		if n.Draining {
			mark = "draining"
		}
		hb := "hb=never"
		if n.HeartbeatAgeSeconds >= 0 {
			hb = fmt.Sprintf("hb=%.1fs", n.HeartbeatAgeSeconds)
		}
		line := fmt.Sprintf("  %-10s %-22s %-8s %-9s own=%4.1f%% queue=%d busy=%d/%d",
			n.Name, n.URL, mark, hb, 100*n.Ownership, n.QueueDepth, n.Busy, n.Workers)
		if n.LastError != "" {
			line += "  (" + n.LastError + ")"
		}
		fmt.Println(line)
	}
	if !h.OK {
		return errors.New("no live nodes")
	}
	return nil
}

// readSpecArg resolves a spec argument: literal JSON, @file, or "-" for
// stdin.
func readSpecArg(arg string) ([]byte, error) {
	switch {
	case arg == "-":
		return io.ReadAll(os.Stdin)
	case strings.HasPrefix(arg, "@"):
		return os.ReadFile(arg[1:])
	default:
		return []byte(arg), nil
	}
}

func cmdSubmit(ctx context.Context, c *client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	follow := fs.Bool("follow", false, "tail the job's SSE progress stream until it finishes")
	spec := fs.String("spec", "", "job spec: JSON, @file, or - for stdin (alternative to the positional arg)")
	out := fs.String("out", "", "write the finished report here (default stdout; implies waiting)")
	wait := fs.Bool("wait", true, "wait for the job and print the report (false: print the job id and exit)")
	fs.Parse(args)
	arg := *spec
	if arg == "" {
		if fs.NArg() != 1 {
			return errors.New("submit wants exactly one spec argument (or -spec)")
		}
		arg = fs.Arg(0)
	}
	body, err := readSpecArg(arg)
	if err != nil {
		return err
	}
	var st jobStatus
	if err := c.doJSON(ctx, http.MethodPost, "/v1/jobs", body, &st); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	where := st.Node
	if where == "" {
		where = "node"
	}
	fmt.Fprintf(os.Stderr, "job %s %s on %s\n", st.ID, st.State, where)
	if !*wait && *out == "" {
		fmt.Println(st.ID)
		return nil
	}
	return c.finishJob(ctx, st, *follow, *out)
}

// finishJob waits for the job (tailing its events to stderr when follow is
// set) and writes the report.
func (c *client) finishJob(ctx context.Context, st jobStatus, follow bool, out string) error {
	st, err := c.await(ctx, st, follow)
	if err != nil {
		return err
	}
	if st.State != simsvc.StateDone {
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	if st.Cached {
		fmt.Fprintf(os.Stderr, "job %s served from cache (key %s)\n", st.ID, st.Key)
	}
	if out == "" {
		_, err = os.Stdout.Write(append(bytes.TrimRight(st.Report, "\n"), '\n'))
		return err
	}
	return os.WriteFile(out, st.Report, 0o644)
}

// await waits for a job to reach a terminal state. It reads the job's
// event stream to its end, which the server closes after the terminal
// event (echoing each event to stderr when follow is set), then fetches
// the status once. If the stream fails, or the status is not terminal
// after it, await polls.
func (c *client) await(ctx context.Context, st jobStatus, follow bool) (jobStatus, error) {
	if st.State.Terminal() {
		return st, nil
	}
	if err := c.streamEvents(ctx, st.ID, follow); err != nil {
		if follow {
			fmt.Fprintf(os.Stderr, "event stream: %v (falling back to polling)\n", err)
		}
	} else if err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+st.ID, nil, &st); err != nil {
		return st, fmt.Errorf("poll %s: %w", st.ID, err)
	}
	for !st.State.Terminal() {
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
		if err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+st.ID, nil, &st); err != nil {
			return st, fmt.Errorf("poll %s: %w", st.ID, err)
		}
	}
	return st, nil
}

// streamEvents reads a job's SSE stream until the server closes it after
// the terminal event, writing each event to stderr when echo is set.
func (c *client) streamEvents(ctx context.Context, id string, echo bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
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
	for sc.Scan() {
		line := sc.Text()
		if echo && strings.HasPrefix(line, "data: ") {
			fmt.Fprintf(os.Stderr, "event: %s\n", strings.TrimPrefix(line, "data: "))
		}
	}
	return sc.Err()
}

func cmdFollow(ctx context.Context, c *client, args []string) error {
	if len(args) != 1 {
		return errors.New("follow wants exactly one job id")
	}
	var st jobStatus
	if err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+args[0], nil, &st); err != nil {
		return err
	}
	return c.finishJob(ctx, st, true, "")
}

func cmdDrain(ctx context.Context, c *client, cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	handoff := fs.Bool("handoff", false, "after draining, push the node's cached reports to their new ring owners\nand deregister it — a permanent departure that recomputes nothing (drain only)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("%s wants exactly one node name", cmd)
	}
	node := fs.Arg(0)
	if *handoff && cmd != "drain" {
		return errors.New("-handoff only applies to drain")
	}
	path := "/v1/fleet/" + node + "/" + cmd
	if *handoff {
		path += "?handoff=1"
	}
	var resp struct {
		fleet.FleetHealth
		Handoff *fleet.HandoffResult `json:"handoff"`
	}
	if err := c.doJSON(ctx, http.MethodPost, path, nil, &resp); err != nil {
		return err
	}
	if resp.Handoff != nil {
		fmt.Fprintf(os.Stderr, "handoff %s: %d keys, %d pushed, %d failed, %d skipped\n",
			node, resp.Handoff.Keys, resp.Handoff.Pushed, resp.Handoff.Failed, resp.Handoff.Skipped)
	}
	fmt.Fprintf(os.Stderr, "%s %s: %d/%d nodes live (epoch %d)\n", cmd, node, resp.Live, resp.Total, resp.Epoch)
	return nil
}

// cmdSweep expands a grid spec and pushes every point through the fleet,
// writing each finished report to <out>/<job-key>.json. Failed points are
// resubmitted up to -retries times — killing a node mid-sweep must not
// lose points, it just reroutes them.
func cmdSweep(ctx context.Context, c *client, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	grid := fs.String("grid", "", "grid spec: 'field=v1,v2;field=v3' over JobSpec fields (required)")
	out := fs.String("out", "", "directory for the <job-key>.json reports (required)")
	par := fs.Int("parallel", 4, "in-flight jobs")
	retries := fs.Int("retries", 2, "resubmissions per failed point")
	fs.Parse(args)
	if *grid == "" || *out == "" {
		return errors.New("sweep wants -grid and -out")
	}
	specs, err := fleet.ExpandGrid(*grid)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep: %d points, %d in flight\n", len(specs), *par)

	type result struct {
		key string
		err error
	}
	sem := make(chan struct{}, max(1, *par))
	results := make([]result, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec simsvc.JobSpec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			key := spec.Key()
			results[i] = result{key: key, err: c.sweepPoint(ctx, spec, filepath.Join(*out, key+".json"), *retries)}
		}(i, spec)
	}
	wg.Wait()

	var failed []string
	for _, r := range results {
		if r.err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", r.key[:12], r.err))
		}
	}
	sort.Strings(failed)
	fmt.Fprintf(os.Stderr, "sweep: %d/%d points done\n", len(specs)-len(failed), len(specs))
	if len(failed) > 0 {
		return fmt.Errorf("%d points failed:\n  %s", len(failed), strings.Join(failed, "\n  "))
	}
	return nil
}

// sweepPoint drives one grid point to a written report, resubmitting the
// job on failure.
func (c *client) sweepPoint(ctx context.Context, spec simsvc.JobSpec, path string, retries int) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			fmt.Fprintf(os.Stderr, "sweep: resubmitting %s (attempt %d): %v\n", spec.Key()[:12], attempt+1, lastErr)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Duration(attempt) * 500 * time.Millisecond):
			}
		}
		lastErr = func() error {
			var st jobStatus
			if err := c.doJSON(ctx, http.MethodPost, "/v1/jobs", body, &st); err != nil {
				return err
			}
			st, err := c.await(ctx, st, false)
			if err != nil {
				return err
			}
			if st.State != simsvc.StateDone {
				return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
			}
			return os.WriteFile(path, st.Report, 0o644)
		}()
		if lastErr == nil {
			return nil
		}
	}
	return lastErr
}
