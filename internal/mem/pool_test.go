package mem

import (
	"testing"

	"mallacc/internal/stats"
)

// fillSpace makes n writes into a fresh region of s: random nonzero words,
// with every fifth write zeroing the word written just before it. It
// returns what s should hold there.
func fillSpace(s *Space, rng *stats.RNG, n int) map[uint64]uint64 {
	base := s.Sbrk(1 << 24)
	ref := make(map[uint64]uint64, n)
	var addr uint64
	for i := 0; i < n; i++ {
		val := uint64(0)
		if i%5 != 4 {
			addr = base + 8*(rng.Uint64()%(1<<21))
			val = rng.Uint64() | 1
		}
		s.WriteWord(addr, val)
		if val == 0 {
			delete(ref, addr)
		} else {
			ref[addr] = val
		}
	}
	return ref
}

// checkSpace fails unless s reads ref's value at every address of ref and
// 0 at every address of stale that ref does not hold, and every shard's
// table holds only the keys the shard put there. A table goes back to
// whichever shard next asks for its length, so a key left over from an
// earlier space mostly sits in a shard that never looks it up: only the
// key count shows it before the table fills up.
func checkSpace(t *testing.T, s *Space, ref, stale map[uint64]uint64) {
	t.Helper()
	for i := range s.shards {
		sh := &s.shards[i]
		keys := 0
		for _, k := range sh.keys {
			if k != 0 {
				keys++
			}
		}
		if keys != sh.used {
			t.Fatalf("shard %d holds %d keys but filled %d slots", i, keys, sh.used)
		}
	}
	for addr, want := range ref {
		if got := s.ReadWord(addr); got != want {
			t.Fatalf("word %#x reads %#x, want %#x", addr, got, want)
		}
	}
	for addr := range stale {
		if _, ok := ref[addr]; ok {
			continue
		}
		if got := s.ReadWord(addr); got != 0 {
			t.Fatalf("word %#x written by a released space reads %#x in its successor, want 0", addr, got)
		}
	}
}

// TestRecycledTablesReadZero pins the word store's reset contract. Spaces
// are filled in steps that land their shards in tables of 256, 512, 1,024
// and 2,048 slots, and each is released when done, so every later space
// grows through recycled tables. After every step a space must hold
// exactly its own words and read 0 at every address an earlier space
// wrote. (Checking after each step also keeps a broken reset from filling
// a table with stale keys until probing never ends.) The pools may lose
// entries to a garbage collection, and drop some puts on purpose under the
// race detector, so the test retries until the last space, grown through
// all four lengths, took some released table.
func TestRecycledTablesReadZero(t *testing.T) {
	// Cumulative writes per shard after each step; growth happens at three
	// quarters full, so each step ends in the next table length.
	perShard := []int{120, 390, 820, 1600}
	rng := stats.NewRNG(7)
	stale := map[uint64]uint64{}
	released := map[*wordTable]bool{}
	// grow fills a new space through the first steps of perShard, then
	// releases it, and returns how often it held a released table.
	grow := func(steps int) int {
		s := NewDefaultSpace()
		ref := map[uint64]uint64{}
		recycled, written := 0, 0
		for k, n := range perShard[:steps] {
			for addr, val := range fillSpace(s, rng, (n-written)*wordShardCount) {
				ref[addr] = val
			}
			written = n
			checkSpace(t, s, ref, stale)
			for i := range s.shards {
				if got, want := len(s.shards[i].keys), wordShardInitSlots<<k; got != want {
					t.Fatalf("after %d writes per shard, shard %d has %d slots, want %d", n, i, got, want)
				}
				if released[s.shards[i].tab] {
					recycled++
				}
			}
		}
		for addr, val := range ref {
			stale[addr] = val
		}
		for i := range s.shards {
			released[s.shards[i].tab] = true
		}
		s.Release()
		return recycled
	}
	for attempt := 0; attempt < 5; attempt++ {
		for steps := 1; steps <= len(perShard); steps++ {
			grow(steps)
		}
		if grow(len(perShard)) > 0 {
			return
		}
	}
	t.Fatal("no released table was ever recycled")
}
