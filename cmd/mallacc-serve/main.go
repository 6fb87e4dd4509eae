// Command mallacc-serve runs the simulation service: an HTTP daemon with a
// job queue, a bounded simulation worker pool, and a content-addressed
// result cache. Every job is a fully-specified deterministic run, so
// identical submissions are answered from the cache without re-simulating.
//
// Usage:
//
//	mallacc-serve                          # listen on 127.0.0.1:7077
//	mallacc-serve -addr :8080 -workers 4
//	mallacc-serve -cache-dir results/cache # persist reports across restarts
//	mallacc-serve -digest                  # run the pinned cache digest and exit
//	mallacc-serve -pprof                   # also expose /debug/pprof/ (off by default)
//	mallacc-serve -fleet n1=:7071,n2=:7072 -self n1
//	                                       # static fleet member: peer cache fill on miss
//	mallacc-serve -self n1 -coord http://127.0.0.1:7070
//	                                       # dynamic fleet member: join the coordinator
//	                                       # at startup, heartbeat, track the live ring
//
// API:
//
//	curl -s localhost:7077/v1/jobs -d '{"experiment":"fig13"}'
//	curl -s localhost:7077/v1/jobs/j00000001
//	curl -sN localhost:7077/v1/jobs/j00000001/events    # live SSE progress
//	curl -s -X DELETE localhost:7077/v1/jobs/j00000001
//	curl -s localhost:7077/v1/traces -d '{"workload":"ubench.gauss"}'
//	curl -s localhost:7077/v1/healthz
//	curl -s localhost:7077/v1/metrics
//	curl -s "localhost:7077/v1/metrics?format=openmetrics"
//
// SIGTERM/SIGINT drains gracefully: intake stops, queued jobs are
// canceled, in-flight jobs run to completion, then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mallacc/internal/faults"
	"mallacc/internal/fleet"
	"mallacc/internal/simsvc"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7077", "listen address")
		workers   = flag.Int("workers", 0, "concurrent simulations, jobs and experiment cells alike (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", simsvc.DefaultQueueHighWater, "queue high-water mark; submissions beyond it get 429")
		cacheN    = flag.Int("cache", simsvc.DefaultCacheEntries, "in-memory result cache entries")
		cacheDir  = flag.String("cache-dir", "", "directory for the on-disk result cache (empty = memory only)")
		traceDir  = flag.String("trace-dir", "", "directory for the on-disk recorded-trace store (empty = memory only)")
		progEvery = flag.Uint64("progress-every", 0, "progress-event cadence in simulated cycles (0 = default)")
		timeout   = flag.Duration("timeout", simsvc.DefaultJobTimeout, "per-job run timeout")
		attempts  = flag.Int("max-attempts", simsvc.DefaultMaxAttempts, "runs per job including the first; transient failures retry up to this")
		drainT    = flag.Duration("drain-timeout", 2*time.Minute, "graceful shutdown budget for in-flight jobs")
		digest    = flag.Bool("digest", false, "run the deterministic cache digest to stdout and exit")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (profiling only; leave off in shared deployments)")
		faultSpec = flag.String("faults", "", "fault-injection spec for chaos testing: JSON, @file, or compact form\n(e.g. \"seed=7;simsvc.exec,prob=0.2\"); overrides $"+faults.EnvVar)
		fleetSpec = flag.String("fleet", "", "static fleet membership \"name=url,name=url,...\" — enables peer cache fill\n(ask the job key's ring candidates before simulating); requires -self")
		selfName  = flag.String("self", "", "this node's name in the fleet")
		coordSpec = flag.String("coord", "", "coordinator base URLs, comma separated — join the fleet dynamically at\nstartup and heartbeat; requires -self, mutually exclusive with -fleet")
		advertise = flag.String("advertise", "", "base URL coordinators and peers reach this node at\n(default: http://<addr>, with a loopback host substituted for a wildcard)")
		hbEvery   = flag.Duration("heartbeat-every", fleet.DefaultHeartbeatEvery, "membership heartbeat cadence (dynamic fleet only)")
	)
	flag.Parse()

	faultReg, err := faults.ActivateFromSpec(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *digest {
		if err := runDigest(*workers, *timeout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	cfg := simsvc.Config{
		Workers:        *workers,
		QueueHighWater: *queue,
		JobTimeout:     *timeout,
		CacheEntries:   *cacheN,
		CacheDir:       *cacheDir,
		MaxAttempts:    *attempts,
		TraceDir:       *traceDir,
		ProgressEvery:  *progEvery,
	}
	var filler *fleet.PeerFiller
	dynamic := *coordSpec != ""
	switch {
	case dynamic && *fleetSpec != "":
		fmt.Fprintln(os.Stderr, "mallacc-serve: -coord and -fleet are mutually exclusive")
		os.Exit(2)
	case dynamic && *selfName == "":
		fmt.Fprintln(os.Stderr, "mallacc-serve: -coord requires -self")
		os.Exit(2)
	case dynamic:
		filler, err = fleet.NewDynamicPeerFiller(*selfName, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.PeerFill = filler.Fill
	case *fleetSpec != "" || *selfName != "":
		if *fleetSpec == "" || *selfName == "" {
			fmt.Fprintln(os.Stderr, "mallacc-serve: -fleet and -self must be set together")
			os.Exit(2)
		}
		nodes, err := fleet.ParseNodes(*fleetSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		filler, err = fleet.NewPeerFiller(*selfName, nodes, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.PeerFill = filler.Fill
	}
	svc, err := simsvc.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if filler != nil {
		filler.RegisterMetrics(svc.Registry())
		fmt.Fprintf(os.Stderr, "mallacc-serve: fleet peer fill enabled (self=%s)\n", *selfName)
	}
	if faultReg != nil {
		faultReg.RegisterMetrics(svc.Registry())
		fmt.Fprintf(os.Stderr, "mallacc-serve: FAULT INJECTION ACTIVE at %v\n", faultReg.Points())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mallacc-serve listening on http://%s\n", ln.Addr())

	handler := svc.Handler()
	if filler != nil {
		// Any fleet member can be told to hand its cache off (the coordinator
		// orchestrates drain --handoff by POSTing here), so the route is
		// mounted in both static and dynamic modes.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("POST /v1/fleet/handoff", fleet.NewHandoffHandler(*selfName, svc.Cache(), svc.Registry()))
		handler = mux
	}
	var agent *fleet.Agent
	if dynamic {
		self := fleet.Node{Name: *selfName, URL: advertiseURL(*advertise, ln.Addr().String())}
		agent, err = fleet.NewAgent(fleet.AgentConfig{
			Self:           self,
			Coordinators:   fleet.SplitURLList(*coordSpec),
			HeartbeatEvery: *hbEvery,
			OnView:         filler.SetView,
			Registry:       svc.Registry(),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		agent.Start()
		defer agent.Close()
		fmt.Fprintf(os.Stderr, "mallacc-serve: joining fleet as %s at %s (coordinators: %s)\n",
			self.Name, self.URL, *coordSpec)
	}
	if *pprofOn {
		// The service handler keeps the whole API under /v1/, so mounting
		// the profiler beside it cannot shadow a service route.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		fmt.Fprintf(os.Stderr, "mallacc-serve: pprof enabled at http://%s/debug/pprof/\n", *addr)
	}
	srv := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "mallacc-serve: %v, draining\n", s)
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if agent != nil {
		// Deregister before draining so the coordinators stop routing new
		// work here while in-flight jobs finish.
		agent.Close()
		agent.Leave()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	drainErr := svc.Drain(ctx)
	srv.Shutdown(context.Background())
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "mallacc-serve: drain: %v\n", drainErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "mallacc-serve: drained cleanly")
}

// advertiseURL resolves the base URL this node tells the fleet to reach it
// at: the -advertise flag verbatim when set, otherwise the actual listen
// address with a wildcard host replaced by loopback (a fleet on one
// machine is the common dev and CI shape; multi-host fleets set
// -advertise explicitly).
func advertiseURL(flagVal, listenAddr string) string {
	if flagVal != "" {
		return fleet.NormalizeURL(flagVal)
	}
	host, port, err := net.SplitHostPort(listenAddr)
	if err == nil && (host == "" || host == "::" || host == "0.0.0.0") {
		listenAddr = net.JoinHostPort("127.0.0.1", port)
	}
	return fleet.NormalizeURL(listenAddr)
}
