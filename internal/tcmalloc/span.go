package tcmalloc

import "mallacc/internal/mem"

// SpanLocation tracks where a span currently lives.
type SpanLocation uint8

const (
	// SpanInUse means the span is carved into objects (small classes) or
	// handed out whole (large allocation).
	SpanInUse SpanLocation = iota
	// SpanOnFreeList means the span sits on a page-heap free list.
	SpanOnFreeList
)

// Span is a contiguous run of allocator pages, the unit the page heap
// manages and the central free lists carve into size-class objects.
type Span struct {
	// Start is the first page ID, Length the page count.
	Start  uint64
	Length uint64
	// SizeClass is the small class this span is carved for (0 = large).
	SizeClass uint8
	Location  SpanLocation

	// Refcount counts live (allocated) objects carved from this span.
	Refcount int
	// FreeHead is the in-memory linked list of this span's free objects
	// (managed by the central free list); zero when empty.
	FreeHead uint64
	// FreeCount is the number of objects on FreeHead.
	FreeCount int

	// MetaAddr is the simulated address of the span struct itself, so
	// span-header accesses (e.g. reading SizeClass on free) hit the cache
	// models realistically.
	MetaAddr uint64

	// prev/next link spans on page-heap free lists.
	prev, next *Span
}

// StartAddr returns the byte address of the span's first page.
func (s *Span) StartAddr() uint64 { return s.Start << mem.PageShift }

// ByteLen returns the span size in bytes.
func (s *Span) ByteLen() uint64 { return s.Length << mem.PageShift }

// spanList is an intrusive doubly linked list of spans with a sentinel-free
// head, mirroring the page heap's per-length lists.
type spanList struct {
	head *Span
}

func (l *spanList) empty() bool { return l.head == nil }

func (l *spanList) pushFront(s *Span) {
	s.prev = nil
	s.next = l.head
	if l.head != nil {
		l.head.prev = s
	}
	l.head = s
}

func (l *spanList) popFront() *Span {
	s := l.head
	if s == nil {
		return nil
	}
	l.remove(s)
	return s
}

func (l *spanList) remove(s *Span) {
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		l.head = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	}
	s.prev, s.next = nil, nil
}
