// Package fleet scales the simulation service out to many mallacc-serve
// nodes. It provides the three pieces a sharded fleet needs:
//
//   - Ring: a consistent-hash ring with virtual nodes over the existing
//     SHA-256 job key, so every job has one deterministic owning shard and
//     node churn moves only the keys it must (~K/N on join/leave).
//   - Coordinator: an HTTP daemon (cmd/mallacc-coord) speaking the same
//     /v1/jobs API as a single node, so existing clients work unchanged.
//     It starts each submission on the job key's owning shard or its ring
//     successor, whichever has a free worker (else it queues at the
//     shorter backlog), fails over past dead nodes, feeds probe and proxy
//     outcomes into each node's one membership state (a failure makes it
//     suspect and routes it last), and fans SSE progress streams out
//     through itself.
//   - PeerFiller: the node-side peer-to-peer cache fill. Before simulating
//     a job it does not hold, a node asks the key's other ring candidates
//     via GET /v1/cache/{key}; reshards and node (re)joins warm from peers
//     instead of recomputing.
//
// Job results are pure functions of their specs, so any node can serve any
// job; the ring only concentrates cache ownership. That is what makes
// failover trivially correct: a recompute on a different node is
// byte-identical to the lost copy.
package fleet

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// Node is one mallacc-serve member of the fleet.
type Node struct {
	// Name is the node's stable identity on the ring. It must match
	// NodeNameRE; in particular it cannot contain '.', which separates the
	// node prefix from the upstream job id in coordinator job ids.
	Name string `json:"name"`
	// URL is the node's base URL (e.g. http://127.0.0.1:7071).
	URL string `json:"url"`
}

// NodeNameRE constrains node names: lowercase alphanumerics and hyphens,
// starting with an alphanumeric. No dots — coordinator job ids are
// "<node>.<upstream-id>".
var NodeNameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// ParseNodes parses the CLI fleet spec "name=url,name=url,...". Names must
// be unique and well-formed; URLs get an http:// scheme when bare.
func ParseNodes(spec string) ([]Node, error) {
	var nodes []Node
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("fleet: node %q is not name=url", part)
		}
		name, url = strings.TrimSpace(name), strings.TrimSpace(url)
		if !NodeNameRE.MatchString(name) {
			return nil, fmt.Errorf("fleet: bad node name %q (want %s)", name, NodeNameRE)
		}
		if seen[name] {
			return nil, fmt.Errorf("fleet: duplicate node name %q", name)
		}
		seen[name] = true
		if url == "" {
			return nil, fmt.Errorf("fleet: node %q has an empty url", name)
		}
		nodes = append(nodes, Node{Name: name, URL: NormalizeURL(url)})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("fleet: empty node spec")
	}
	return nodes, nil
}

// NormalizeURL gives a bare host:port an http:// scheme and strips any
// trailing slash — the canonical base-URL form every fleet spec uses.
func NormalizeURL(url string) string {
	if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
		url = "http://" + url
	}
	return strings.TrimRight(url, "/")
}

// SplitURLList parses a comma-separated list of base URLs (coordinator
// -peers, node -coord), normalizing each entry and skipping empties.
func SplitURLList(spec string) []string {
	var urls []string
	for _, p := range strings.Split(spec, ",") {
		if p = strings.TrimSpace(p); p != "" {
			urls = append(urls, NormalizeURL(p))
		}
	}
	return urls
}

// SplitJobID splits a coordinator job id "<node>.<upstream-id>" into its
// parts. ok is false when the id carries no node prefix.
func SplitJobID(id string) (node, rest string, ok bool) {
	node, rest, ok = strings.Cut(id, ".")
	if !ok || node == "" || rest == "" {
		return "", "", false
	}
	return node, rest, true
}

// JoinJobID builds a coordinator job id from a node name and the node's own
// job id.
func JoinJobID(node, id string) string { return node + "." + id }

// nodeNames returns the sorted names of a node list.
func nodeNames(nodes []Node) []string {
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = n.Name
	}
	sort.Strings(names)
	return names
}
