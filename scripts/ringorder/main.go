// Command ringorder prints where a fleet routes each job spec read from
// stdin, one spec per line: the spec's content key followed by its ring
// candidates in order — the owner, its successor, then the rest. The
// arguments are the fleet's node names, and the ring is the default one
// mallacc-coord builds. Smoke scripts use it to pick specs with a known
// owner before submitting them:
//
//	echo '{"workload":"ubench.gauss","seed":3}' | \
//	    go run ./scripts/ringorder n1 n2 n3
//
// prints "<key> n2 n3 n1".
package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"

	"mallacc/internal/fleet"
	"mallacc/internal/simsvc"
)

func main() {
	ring, err := fleet.NewRing(0, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringorder:", err)
		os.Exit(2)
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		spec, err := simsvc.DecodeSpec([]byte(line))
		if err == nil {
			spec, err = spec.Canonicalize()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ringorder: %s: %v\n", line, err)
			os.Exit(1)
		}
		key := spec.Key()
		fmt.Println(key, strings.Join(ring.Candidates(key, 0), " "))
	}
	if err := in.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "ringorder:", err)
		os.Exit(1)
	}
}
