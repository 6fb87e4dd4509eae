package tcmalloc

import (
	"slices"
	"testing"

	"mallacc/internal/mem"
	"mallacc/internal/uop"
)

// pageAt returns the page ID at radix indices (r, m, l).
func pageAt(r, m, l uint64) uint64 { return r<<rootShift | m<<midShift | l }

// buildTraced fills a page map over a fresh default space with EmitSet,
// then walks every page of probe with EmitGet, and returns the map plus
// the addresses of every uop emitted.
func buildTraced(pages, probe []uint64) (*PageMap, []uint64) {
	pm := NewPageMap(mem.NewArena(mem.NewDefaultSpace(), 8<<20))
	e := uop.NewEmitter()
	defer e.Recycle()
	var addrs []uint64
	record := func() {
		for _, op := range e.Trace().Ops {
			addrs = append(addrs, op.Addr)
		}
		e.Reset()
	}
	for _, p := range pages {
		pm.EmitSet(e, p, &Span{Start: p, Length: 1}, uop.NoDep)
		record()
	}
	for _, p := range probe {
		pm.EmitGet(e, p, uop.NoDep)
		record()
	}
	return pm, addrs
}

// TestRecycledPageMapIsEmpty pins the page map's reset contract. The
// released tree maps odd leaf slots under six root entries; its successor
// maps even slots under a subset of the same leaves, so wherever a
// recycled node lands, a slot it kept would map a page of the released
// tree. The successor must
// return nil for every page of the released tree, and its EmitSet and
// EmitGet must emit the same uop addresses as a reference tree built the
// same way, which stays live throughout. The pools may lose entries to a
// garbage collection (and drop some puts on purpose under the race
// detector), so the test retries until some node was recycled.
func TestRecycledPageMapIsEmpty(t *testing.T) {
	var old, fresh []uint64
	for r := uint64(0); r < 6; r++ {
		for m := uint64(0); m < 4; m++ {
			for l := uint64(0); l < 64; l += 2 {
				old = append(old, pageAt(r, m, l+1))
				if r < 4 && m < 3 {
					fresh = append(fresh, pageAt(r, m, l))
				}
			}
		}
	}
	probe := slices.Concat(fresh, old)
	ref, want := buildTraced(fresh, probe)
	defer ref.Release()

	for attempt := 0; attempt < 5; attempt++ {
		prev, _ := buildTraced(old, nil)
		released := map[any]bool{}
		for _, mid := range prev.root {
			if mid != nil {
				released[mid] = true
				for _, leaf := range &mid.leaves {
					if leaf != nil {
						released[leaf] = true
					}
				}
			}
		}
		prev.Release()

		pm, got := buildTraced(fresh, probe)
		for _, p := range old {
			if s := pm.Get(p); s != nil {
				t.Fatalf("page %#x of the released tree maps span %#x in its successor, want nil", p, s.Start)
			}
		}
		for _, p := range fresh {
			if s := pm.Get(p); s == nil || s.Start != p {
				t.Fatalf("page %#x lost its span", p)
			}
		}
		if pm.Nodes != ref.Nodes || !slices.Equal(got, want) {
			t.Fatalf("recycled tree emits %d uop addresses over %d nodes, a fresh one %d over %d, or they differ",
				len(got), pm.Nodes, len(want), ref.Nodes)
		}
		recycled := false
		for _, mid := range pm.root {
			if mid != nil {
				recycled = recycled || released[mid]
				for _, leaf := range &mid.leaves {
					recycled = recycled || (leaf != nil && released[leaf])
				}
			}
		}
		pm.Release()
		if recycled {
			return
		}
	}
	t.Fatal("no released node was ever recycled")
}
