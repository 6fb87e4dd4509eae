package fleet

import (
	"fmt"
	"math"
	"testing"
)

// TestRingGoldenOwnership pins ownership for a fixed fleet. The ring hashes
// with SHA-256, so these assignments are a contract across platforms and
// releases: changing them silently would orphan every node's cache.
func TestRingGoldenOwnership(t *testing.T) {
	r, err := NewRing(0, []string{"n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{
		"":      "n3",
		"a":     "n1",
		"fig13": "n3",
		"fig14": "n1",
		"fig17": "n1",
		// Real job-key shapes: hex SHA-256 content addresses.
		"0c43d69b5e9eb6f20fa4ee4fd10d95ba4c3af7bdfac6f2e771e5b94c0376c5c1": "n1",
		"2f0a9a4b9e2d7c1853a8a6c2f9d3b1e4a5c6d7e8f90123456789abcdef012345": "n2",
		"gauss|mallacc|16":    "n3",
		"tcmalloc|baseline|0": "n3",
	}
	for key, want := range golden {
		if got := r.Lookup(key); got != want {
			t.Errorf("Lookup(%q) = %q, want %q", key, got, want)
		}
	}
	if got := fmt.Sprint(r.Candidates("fig13", 0)); got != "[n3 n1 n2]" {
		t.Errorf("Candidates(fig13) = %s, want [n3 n1 n2]", got)
	}
}

// TestRingOwnershipSpread checks the virtual nodes keep the hash-space
// split near uniform and summing to one.
func TestRingOwnershipSpread(t *testing.T) {
	nodes := []string{"n1", "n2", "n3", "n4", "n5"}
	r, err := NewRing(0, nodes)
	if err != nil {
		t.Fatal(err)
	}
	own := r.Ownership()
	sum := 0.0
	for _, n := range nodes {
		f := own[n]
		sum += f
		// 128 virtual nodes keep each share within a factor ~2 of 1/N with
		// lots of margin; the point is catching a broken hash, not tuning.
		if f < 0.5/float64(len(nodes)) || f > 2.0/float64(len(nodes)) {
			t.Errorf("node %s owns %.4f of the space, outside [%.3f, %.3f]",
				n, f, 0.5/float64(len(nodes)), 2.0/float64(len(nodes)))
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("ownership sums to %v, want 1", sum)
	}
}

// ringNodes builds node names n00..nXX.
func ringNodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("n%02d", i)
	}
	return out
}

// TestRingRebalanceBound proves the consistent-hashing contract: adding a
// node moves about K/(N+1) keys — all of them to the new node — and
// removing a node moves only the keys it owned.
func TestRingRebalanceBound(t *testing.T) {
	const keys = 2000
	before, err := NewRing(0, ringNodes(10))
	if err != nil {
		t.Fatal(err)
	}
	grown, err := NewRing(0, append(ringNodes(10), "new"))
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		was, is := before.Lookup(key), grown.Lookup(key)
		if was == is {
			continue
		}
		moved++
		if is != "new" {
			t.Fatalf("key %q moved %s -> %s on join; joins may only move keys to the new node", key, was, is)
		}
	}
	// Expectation is K/(N+1) ≈ 182; allow 2.5× for virtual-node variance.
	bound := keys * 5 / 22 // 2.5 × K/(N+1)
	if moved > bound {
		t.Errorf("join moved %d of %d keys, want <= %d (~K/N)", moved, keys, bound)
	}
	if moved == 0 {
		t.Error("join moved no keys; the new node owns nothing")
	}

	shrunk, err := NewRing(0, ringNodes(9)) // drops n09
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		was, is := before.Lookup(key), shrunk.Lookup(key)
		if was != is && was != "n09" {
			t.Fatalf("key %q moved %s -> %s on leave of n09; leaves may only move the left node's keys", key, was, is)
		}
	}
}

func TestNewRingRejectsBadInput(t *testing.T) {
	if _, err := NewRing(0, nil); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing(0, []string{"a", "a"}); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := NewRing(0, []string{"Bad.Name"}); err == nil {
		t.Error("malformed node name accepted")
	}
}

// FuzzRingLookup asserts the ring never panics, that Lookup answers a ring
// member, and that Candidates lists distinct members starting at the owner
// (all of them when max <= 0), for arbitrary keys and limits.
func FuzzRingLookup(f *testing.F) {
	f.Add("fig13", uint8(0b111), uint8(3))
	f.Add("", uint8(0), uint8(1))
	f.Add("0c43d69b5e9eb6f20fa4ee4fd10d95ba", uint8(0b101), uint8(5))
	f.Fuzz(func(t *testing.T, key string, max uint8, n uint8) {
		nodes := ringNodes(int(n%7) + 1)
		r, err := NewRing(16, nodes)
		if err != nil {
			t.Fatal(err)
		}
		member := map[string]bool{}
		for _, node := range nodes {
			member[node] = true
		}
		owner := r.Lookup(key)
		if !member[owner] {
			t.Fatalf("Lookup(%q) = %q, not a ring member", key, owner)
		}
		limit := int(max % 9)
		want := len(nodes)
		if limit > 0 && limit < want {
			want = limit
		}
		got := r.Candidates(key, limit)
		if len(got) != want || got[0] != owner {
			t.Fatalf("Candidates(%q, %d) = %v, want %d nodes starting at owner %q", key, limit, got, want, owner)
		}
		seen := map[string]bool{}
		for _, c := range got {
			if !member[c] || seen[c] {
				t.Fatalf("Candidates(%q) = %v: non-member or repeated %q", key, got, c)
			}
			seen[c] = true
		}
	})
}
