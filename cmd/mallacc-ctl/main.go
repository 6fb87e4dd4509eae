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
// Sweep reports are written as <key>.json under the job key the server
// returns — content-addressed names, so two sweeps over the same grid
// produce byte-identical directories no matter which nodes computed which
// points (diff -r proves failover correctness).
package main

import (
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

	"mallacc/internal/faults"
	"mallacc/internal/fleet"
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

	// $MALLACC_FAULTS arms fault injection at the remote.http point, so
	// chaos runs fault the client side of every hop ctl makes; without it
	// nothing is injected.
	faultReg, err := faults.ActivateFromSpec("")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mallacc-ctl:", err)
		os.Exit(2)
	}
	if faultReg != nil {
		fmt.Fprintf(os.Stderr, "mallacc-ctl: FAULT INJECTION ACTIVE at %v\n", faultReg.Points())
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := simsvc.NewClient(*coord)

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

// cmdStatus renders the fleet membership view: the epoch, and per node its
// membership state (or "draining"), last-heartbeat age, ownership, and
// occupancy.
func cmdStatus(ctx context.Context, c *simsvc.Client) error {
	var h fleet.FleetHealth
	if err := c.Do(ctx, http.MethodGet, "/v1/healthz", nil, &h); err != nil {
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

func cmdSubmit(ctx context.Context, c *simsvc.Client, args []string) error {
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
	js, err := simsvc.DecodeSpec(body)
	if err != nil {
		return err
	}
	st, err := c.Submit(ctx, js)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	// A coordinator's job id names the node that holds the job.
	fmt.Fprintf(os.Stderr, "job %s %s\n", st.ID, st.State)
	if !*wait && *out == "" {
		fmt.Println(st.ID)
		return nil
	}
	return finishJob(ctx, c, st, *follow, *out)
}

// finishJob waits for the job (rendering its events to stderr when follow
// is set) and writes the report.
func finishJob(ctx context.Context, c *simsvc.Client, st simsvc.JobStatus, follow bool, out string) error {
	var echo io.Writer
	if follow {
		echo = os.Stderr
	}
	st, err := c.Wait(ctx, st, echo)
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

func cmdFollow(ctx context.Context, c *simsvc.Client, args []string) error {
	if len(args) != 1 {
		return errors.New("follow wants exactly one job id")
	}
	st, err := c.Job(ctx, args[0])
	if err != nil {
		return err
	}
	return finishJob(ctx, c, st, true, "")
}

func cmdDrain(ctx context.Context, c *simsvc.Client, cmd string, args []string) error {
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
	if err := c.Do(ctx, http.MethodPost, path, nil, &resp); err != nil {
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
func cmdSweep(ctx context.Context, c *simsvc.Client, args []string) error {
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

	sem := make(chan struct{}, max(1, *par))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec simsvc.JobSpec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = sweepPoint(ctx, c, spec, *out, *retries)
		}(i, spec)
	}
	wg.Wait()

	var failed []string
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err.Error())
		}
	}
	sort.Strings(failed)
	fmt.Fprintf(os.Stderr, "sweep: %d/%d points done\n", len(specs)-len(failed), len(specs))
	if len(failed) > 0 {
		return fmt.Errorf("%d points failed:\n  %s", len(failed), strings.Join(failed, "\n  "))
	}
	return nil
}

// sweepPoint drives one grid point to a report written as <dir>/<key>.json,
// under the key the server returns, resubmitting the job on failure.
func sweepPoint(ctx context.Context, c *simsvc.Client, spec simsvc.JobSpec, dir string, retries int) error {
	label, _ := json.Marshal(spec)
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			fmt.Fprintf(os.Stderr, "sweep: resubmitting %s (attempt %d): %v\n", label, attempt+1, lastErr)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Duration(attempt) * 500 * time.Millisecond):
			}
		}
		lastErr = func() error {
			st, err := c.Submit(ctx, spec)
			if err != nil {
				return err
			}
			if st, err = c.Wait(ctx, st, nil); err != nil {
				return err
			}
			if st.State != simsvc.StateDone {
				return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
			}
			return os.WriteFile(filepath.Join(dir, st.Key+".json"), st.Report, 0o644)
		}()
		if lastErr == nil {
			return nil
		}
	}
	return fmt.Errorf("%s: %w", label, lastErr)
}
