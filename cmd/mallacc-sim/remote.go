package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"mallacc"
	"mallacc/internal/harness"
	"mallacc/internal/simsvc"
)

// runRemote submits the run as a job to a mallacc-serve daemon, waits for
// it on its event stream — rendering the events to stderr when follow is
// set — and renders the returned report in the requested format.
func runRemote(base, wname, variant, backend string, entries, calls int, seed uint64, cores int, format string, metrics, follow bool) error {
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
	client := simsvc.NewClient(base)
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	var echo io.Writer
	if follow {
		echo = os.Stderr
	}
	if st, err = client.Wait(ctx, st, echo); err != nil {
		return err
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

// recordRemote asks the daemon to record a trace server-side and prints
// the replayable trace:<key> workload name.
func recordRemote(base string, spec simsvc.TraceSpec) error {
	rec, err := simsvc.NewClient(base).RecordTrace(context.Background(), spec)
	if err != nil {
		return fmt.Errorf("record trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "daemon recorded %d events\n", rec.Events)
	fmt.Println(rec.Workload)
	return nil
}
