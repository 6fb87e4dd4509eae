package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"mallacc/internal/simsvc"
)

// fetchReport submits the canonical spec as a job to a mallacc-serve
// daemon and waits for it on its event stream, rendering the events to
// stderr when follow is set, then returns the daemon's stored report.
func fetchReport(base string, spec simsvc.JobSpec, follow bool) ([]byte, error) {
	client := simsvc.NewClient(base)
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	var echo io.Writer
	if follow {
		echo = os.Stderr
	}
	if st, err = client.Wait(ctx, st, echo); err != nil {
		return nil, err
	}
	if st.State != simsvc.StateDone {
		return nil, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	if st.Cached {
		fmt.Fprintf(os.Stderr, "job %s served from cache (key %s)\n", st.ID, st.Key)
	}
	return st.Report, nil
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
