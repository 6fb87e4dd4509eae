// Webserver: a datacenter-style request-handling loop simulated through
// the simulation service — the example is a real client of mallacc-serve.
// It boots the service on a loopback port, submits the "server.requests"
// workload (the same request loop, promoted to a stock workload) as
// multi-core jobs through mallacc.Client, the same job-API client
// mallacc-ctl and mallacc-sim -serve use, waits for each on its event
// stream, and prints the returned reports. Submitting a job twice
// demonstrates the content-addressed result cache: the second submission
// comes back instantly, already done, with the byte-identical report.
//
//	go run ./examples/webserver
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"

	"mallacc"
)

const (
	serverCores = 4
	requests    = 5000 // per core
	// callsPerRequest matches the server.requests workload: six header
	// strings plus the response buffer, each malloc'd then freed.
	callsPerRequest = 2 * (6 + 1)
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	// Boot the simulation service in-process and serve its HTTP API on a
	// loopback port — exactly what `mallacc-serve` does as a daemon.
	svc, err := mallacc.NewService(mallacc.ServiceConfig{})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("simulation service listening on %s\n", base)
	client := mallacc.NewClient(base)
	fmt.Printf("simulated web server: %d cores, %d requests/core, %d allocator calls each\n\n",
		serverCores, requests, callsPerRequest)

	spec := mallacc.JobSpec{
		Kind:     "cluster",
		Workload: "server.requests",
		Cores:    serverCores,
		Calls:    serverCores * requests * callsPerRequest,
		Seed:     99,
	}

	for _, variant := range []string{"baseline", "mallacc"} {
		spec.Variant = variant
		st, err := submitAndWait(client, spec)
		if err != nil {
			return err
		}
		var rep mallacc.Report
		if err := json.Unmarshal(st.Report, &rep); err != nil {
			return err
		}
		fmt.Printf("== %s (job %s, %.1fs) ==\n%s\n", variant, st.ID, st.ElapsedSeconds, rep.String())
	}

	// Same spec again: the service answers from the cache without
	// re-simulating.
	st, err := submitAndWait(client, spec)
	if err != nil {
		return err
	}
	fmt.Printf("resubmitted %s job: state=%s cached=%v (content address %s)\n",
		spec.Variant, st.State, st.Cached, st.Key[:16])
	return nil
}

// submitAndWait submits spec and waits for the job to finish.
func submitAndWait(client *mallacc.Client, spec mallacc.JobSpec) (mallacc.JobStatus, error) {
	ctx := context.Background()
	st, err := client.Submit(ctx, spec)
	if err != nil {
		return st, err
	}
	if st, err = client.Wait(ctx, st, nil); err != nil {
		return st, err
	}
	if st.State != "done" {
		return st, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	return st, nil
}
