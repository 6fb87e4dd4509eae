package mem

import (
	"testing"
	"testing/quick"
)

func TestSbrkGrowsPageAligned(t *testing.T) {
	s := NewDefaultSpace()
	a := s.Sbrk(100)
	if a != 1<<28 {
		t.Fatalf("first sbrk at %#x, want the default base %#x", a, 1<<28)
	}
	b := s.Sbrk(PageSize + 1)
	if b != a+PageSize {
		t.Fatalf("second sbrk at %#x, want %#x (100 bytes rounds to one page)", b, a+PageSize)
	}
	if s.brk != b+2*PageSize {
		t.Fatalf("brk %#x, want %#x", s.brk, b+2*PageSize)
	}
	if s.SbrkCalls != 2 {
		t.Fatalf("SbrkCalls = %d", s.SbrkCalls)
	}
	if s.SbrkBytes != 3*PageSize {
		t.Fatalf("SbrkBytes = %d", s.SbrkBytes)
	}
}

func TestWordStoreRoundTrip(t *testing.T) {
	s := NewDefaultSpace()
	base := s.Sbrk(PageSize)
	if v := s.ReadWord(base); v != 0 {
		t.Fatalf("unwritten word reads %#x", v)
	}
	s.WriteWord(base+8, 0xdead)
	if v := s.ReadWord(base + 8); v != 0xdead {
		t.Fatalf("roundtrip got %#x", v)
	}
	if wordsLive(s) != 1 {
		t.Fatalf("WordsLive = %d", wordsLive(s))
	}
	// Writing zero releases the backing entry — the simulation must not
	// leak memory per freed object.
	s.WriteWord(base+8, 0)
	if wordsLive(s) != 0 {
		t.Fatalf("WordsLive after zeroing = %d", wordsLive(s))
	}
}

func TestUnalignedAccessPanics(t *testing.T) {
	s := NewDefaultSpace()
	base := s.Sbrk(PageSize)
	for _, f := range []func(){
		func() { s.ReadWord(base + 1) },
		func() { s.WriteWord(base+3, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("unaligned access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestSpaceExhaustionPanics(t *testing.T) {
	s := NewSpace(1<<28, 1<<28+4*PageSize)
	s.Sbrk(4 * PageSize)
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted space did not panic")
		}
	}()
	s.Sbrk(1)
}

func TestRoundUpAndPageHelpers(t *testing.T) {
	cases := []struct{ n, align, want uint64 }{
		{0, 8, 0}, {1, 8, 8}, {8, 8, 8}, {9, 8, 16}, {8191, 8192, 8192},
	}
	for _, c := range cases {
		if got := RoundUp(c.n, c.align); got != c.want {
			t.Errorf("RoundUp(%d,%d) = %d, want %d", c.n, c.align, got, c.want)
		}
	}
}

func TestArenaAlignmentProperty(t *testing.T) {
	s := NewDefaultSpace()
	a := NewArena(s, 1<<20)
	f := func(n uint16, alignExp uint8) bool {
		align := uint64(1) << (alignExp % 7) // 1..64
		size := uint64(n%4096) + 1
		addr := a.Alloc(size, align)
		return addr%align == 0 && addr+size <= s.brk
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestArenaAllocationsDisjoint(t *testing.T) {
	s := NewDefaultSpace()
	a := NewArena(s, 1<<16)
	type blk struct{ addr, size uint64 }
	var blocks []blk
	for i := 0; i < 500; i++ {
		size := uint64(16 + i%300)
		addr := a.Alloc(size, 8)
		for _, b := range blocks {
			if addr < b.addr+b.size && b.addr < addr+size {
				t.Fatalf("arena overlap: [%#x,%#x) vs [%#x,%#x)", addr, addr+size, b.addr, b.addr+b.size)
			}
		}
		blocks = append(blocks, blk{addr, size})
	}
}

// wordsLive returns how many distinct words are materialized, to check the
// simulation does not leak per-allocation state.
func wordsLive(s *Space) int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].live
	}
	return n
}
