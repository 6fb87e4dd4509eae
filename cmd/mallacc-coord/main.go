// Command mallacc-coord fronts a fleet of mallacc-serve nodes. It speaks
// the same /v1/jobs API as a single node, so every existing client works
// unchanged; behind it, each job is routed to its owning shard by
// consistent hashing on the job key. A job starts on the owner if it has a
// free worker, else on the owner's ring successor, else it queues at
// whichever of the two has the shorter backlog — the nodes decide, so
// placement never waits on a probe. Around that sit failover past failed
// nodes, which health probes and proxy outcomes mark suspect so they are
// tried last, and SSE progress fan-out.
//
// Membership is dynamic: nodes may be seeded statically with -nodes, or
// join at runtime via POST /v1/fleet/join (mallacc-serve -coord does this
// automatically and re-announces itself on a cadence, so a coordinator
// restarted cold relearns its nodes). Health probes and proxy outcomes
// are the only liveness evidence: a failure detector ages a member out
// (healthy → suspect → dead) when its probes keep failing. Several
// coordinators can share one membership view via -peers gossip (each
// round sends the full view); any of them accepts joins and routes
// identically.
//
// Usage:
//
//	mallacc-coord                               # empty fleet; nodes join themselves
//	mallacc-coord -nodes n1=127.0.0.1:7071,n2=127.0.0.1:7072,n3=127.0.0.1:7073
//	mallacc-coord -nodes ... -addr :7070 -probe-every 500ms
//	mallacc-coord -addr :7070 -peers http://127.0.0.1:7080   # gossiping pair
//
// API (see also mallacc-serve):
//
//	curl -s localhost:7070/v1/jobs -d '{"experiment":"fig13"}'   # job id "n2.j00000001"
//	curl -s localhost:7070/v1/jobs/n2.j00000001
//	curl -sN localhost:7070/v1/jobs/n2.j00000001/events
//	curl -s localhost:7070/v1/healthz                            # membership view
//	curl -s "localhost:7070/v1/metrics?format=openmetrics"       # fleet.* telemetry
//	curl -s -X POST localhost:7070/v1/fleet/n2/drain
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mallacc/internal/faults"
	"mallacc/internal/fleet"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7070", "listen address")
		nodesSpec    = flag.String("nodes", "", "static fleet seed \"name=url,name=url,...\" (optional; nodes can also join at runtime)")
		replicas     = flag.Int("replicas", 0, "virtual nodes per member on the hash ring (0 = default; must match the nodes' -fleet rings)")
		probeEvery   = flag.Duration("probe-every", fleet.DefaultProbeEvery, "node health-probe cadence (the failure detector ticks on it too)")
		suspectAfter = flag.Duration("suspect-after", fleet.DefaultSuspectAfter, "silence before a healthy member turns suspect")
		deadAfter    = flag.Duration("dead-after", fleet.DefaultDeadAfter, "further silence before a suspect member is declared dead (ring rebuild)")
		peersSpec    = flag.String("peers", "", "sibling coordinator base URLs, comma separated — membership is gossiped to them")
		gossipEvery  = flag.Duration("gossip-every", fleet.DefaultGossipEvery, "membership gossip cadence to -peers")
		faultSpec    = flag.String("faults", "", "fault-injection spec for chaos testing (e.g. \"seed=7;fleet.proxy,prob=0.2\"); overrides $"+faults.EnvVar)
	)
	flag.Parse()

	faultReg, err := faults.ActivateFromSpec(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var nodes []fleet.Node
	if *nodesSpec != "" {
		nodes, err = fleet.ParseNodes(*nodesSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	peers := fleet.SplitURLList(*peersSpec)

	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Nodes:        nodes,
		Replicas:     *replicas,
		ProbeEvery:   *probeEvery,
		SuspectAfter: *suspectAfter,
		DeadAfter:    *deadAfter,
		Peers:        peers,
		GossipEvery:  *gossipEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer coord.Close()
	if faultReg != nil {
		faultReg.RegisterMetrics(coord.Registry())
		fmt.Fprintf(os.Stderr, "mallacc-coord: FAULT INJECTION ACTIVE at %v\n", faultReg.Points())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mallacc-coord listening on http://%s (%d seed nodes, %d gossip peers)\n",
		ln.Addr(), len(nodes), len(peers))

	srv := &http.Server{Handler: coord.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "mallacc-coord: %v, shutting down\n", s)
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The coordinator holds no job state — shutdown just stops accepting
	// and lets in-flight proxied requests finish.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	fmt.Fprintln(os.Stderr, "mallacc-coord: stopped")
}
