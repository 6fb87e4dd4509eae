package workload

import (
	"bufio"
	"fmt"
	"io"

	"mallacc/internal/stats"
)

// Allocation traces: any workload can be recorded into a portable event
// list and replayed later (or on a different allocator/configuration).
// This is how users bring real application traces to the simulator — the
// format is line-oriented text, one event per line:
//
//	m <size>             allocate <size> bytes
//	f <seq> <hint>       free the allocation numbered <seq>; hint 1 = sized
//	w <cycles> <lines>   application work
//	a                    antagonist cache eviction
//
// Allocation numbers count mallocs from 0 in trace order.

// EventKind tags a trace event.
type EventKind byte

// Event kinds.
const (
	EvMalloc     EventKind = 'm'
	EvFree       EventKind = 'f'
	EvWork       EventKind = 'w'
	EvAntagonize EventKind = 'a'
)

// Event is one recorded allocator-visible action.
type Event struct {
	Kind EventKind
	// Size is the request size (EvMalloc) or work cycles (EvWork).
	Size uint64
	// Seq is the malloc ordinal being freed (EvFree).
	Seq int
	// Sized marks a sized delete (EvFree).
	Sized bool
	// Lines is the cache-line touch count (EvWork).
	Lines int
}

// MaxFootprint bounds a parsed trace's application working set. Footprint
// touches are simulated at 2^40 and up, so 8 TiB keeps every touch below
// 2^44, the highest address whose line tag the cache models hold.
const MaxFootprint = 1 << 43

// Trace is a recorded event sequence; it implements Workload, so a trace
// replays anywhere a generator runs.
type Trace struct {
	TName     string
	Footprint uint64
	Events    []Event
}

// Name implements Workload.
func (t *Trace) Name() string { return t.TName }

// Run replays the trace. The budget and rng are ignored — a trace is
// exact.
func (t *Trace) Run(app App, _ int, _ *stats.RNG) {
	addrs := make([]uint64, 0, len(t.Events))
	sizes := make([]uint64, 0, len(t.Events))
	for _, ev := range t.Events {
		switch ev.Kind {
		case EvMalloc:
			addrs = append(addrs, app.Malloc(ev.Size))
			sizes = append(sizes, ev.Size)
		case EvFree:
			if ev.Seq >= len(addrs) || addrs[ev.Seq] == 0 {
				panic(fmt.Sprintf("workload: trace frees allocation %d twice or before it exists", ev.Seq))
			}
			hint := uint64(0)
			if ev.Sized {
				hint = sizes[ev.Seq]
			}
			app.Free(addrs[ev.Seq], hint)
			addrs[ev.Seq] = 0
		case EvWork:
			app.Work(ev.Size, ev.Lines)
		case EvAntagonize:
			app.Antagonize()
		}
	}
}

// recorder wraps an App and captures the event stream.
type recorder struct {
	inner  App
	events []Event
	seqOf  map[uint64]int
	sizeOf map[uint64]uint64
	n      int
}

func (r *recorder) Malloc(size uint64) uint64 {
	addr := r.inner.Malloc(size)
	r.events = append(r.events, Event{Kind: EvMalloc, Size: size})
	r.seqOf[addr] = r.n
	r.sizeOf[addr] = size
	r.n++
	return addr
}

func (r *recorder) Free(addr, hint uint64) {
	seq, ok := r.seqOf[addr]
	if !ok {
		panic(fmt.Sprintf("workload: recorded free of unknown address %#x", addr))
	}
	delete(r.seqOf, addr)
	delete(r.sizeOf, addr)
	r.events = append(r.events, Event{Kind: EvFree, Seq: seq, Sized: hint != 0})
	r.inner.Free(addr, hint)
}

func (r *recorder) Work(cycles uint64, lines int) {
	r.events = append(r.events, Event{Kind: EvWork, Size: cycles, Lines: lines})
	r.inner.Work(cycles, lines)
}

func (r *recorder) Antagonize() {
	r.events = append(r.events, Event{Kind: EvAntagonize})
	r.inner.Antagonize()
}

// Record runs w against app while capturing its event stream as a Trace.
// The returned trace replays the exact same request sequence.
func Record(w Workload, app App, budget int, rng *stats.RNG) *Trace {
	rec := &recorder{inner: app, seqOf: map[uint64]int{}, sizeOf: map[uint64]uint64{}}
	w.Run(rec, budget, rng)
	return &Trace{
		TName:     w.Name() + ".trace",
		Footprint: FootprintOf(w),
		Events:    rec.events,
	}
}

// nullApp satisfies App with synthetic addresses and no simulation; used
// to capture a generator's request stream cheaply.
type nullApp struct{ next uint64 }

func (n *nullApp) Malloc(uint64) uint64 {
	n.next += 1 << 20
	return n.next
}
func (n *nullApp) Free(uint64, uint64) {}
func (n *nullApp) Work(uint64, int)    {}
func (n *nullApp) Antagonize()         {}

// RecordOnly captures w's request stream without simulating anything.
func RecordOnly(w Workload, budget int, rng *stats.RNG) *Trace {
	return Record(w, &nullApp{next: 1 << 30}, budget, rng)
}

// WriteTo serializes the trace in the text format above, preceded by a
// header line ("trace <name> <footprint>").
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(c int, err error) error {
		n += int64(c)
		return err
	}
	if err := count(fmt.Fprintf(bw, "trace %s %d\n", t.TName, t.Footprint)); err != nil {
		return n, err
	}
	for _, ev := range t.Events {
		var err error
		switch ev.Kind {
		case EvMalloc:
			err = count(fmt.Fprintf(bw, "m %d\n", ev.Size))
		case EvFree:
			h := 0
			if ev.Sized {
				h = 1
			}
			err = count(fmt.Fprintf(bw, "f %d %d\n", ev.Seq, h))
		case EvWork:
			err = count(fmt.Fprintf(bw, "w %d %d\n", ev.Size, ev.Lines))
		case EvAntagonize:
			err = count(fmt.Fprintf(bw, "a\n"))
		}
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadTrace parses the text format.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	t := &Trace{}
	line := 0
	mallocs := 0
	var freed []bool
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		switch text[0] {
		case 't':
			if _, err := fmt.Sscanf(text, "trace %s %d", &t.TName, &t.Footprint); err != nil {
				return nil, fmt.Errorf("workload: bad trace header line %d: %q", line, text)
			}
			if t.Footprint > MaxFootprint {
				return nil, fmt.Errorf("workload: trace footprint %d at line %d exceeds the %d-byte (2^43) limit", t.Footprint, line, uint64(MaxFootprint))
			}
		case 'm':
			var size uint64
			if _, err := fmt.Sscanf(text, "m %d", &size); err != nil {
				return nil, fmt.Errorf("workload: bad malloc line %d: %q", line, text)
			}
			t.Events = append(t.Events, Event{Kind: EvMalloc, Size: size})
			mallocs++
			freed = append(freed, false)
		case 'f':
			var seq, hint int
			if _, err := fmt.Sscanf(text, "f %d %d", &seq, &hint); err != nil {
				return nil, fmt.Errorf("workload: bad free line %d: %q", line, text)
			}
			if seq < 0 || seq >= mallocs {
				return nil, fmt.Errorf("workload: free of not-yet-allocated seq %d at line %d", seq, line)
			}
			if freed[seq] {
				return nil, fmt.Errorf("workload: double free of seq %d at line %d", seq, line)
			}
			freed[seq] = true
			t.Events = append(t.Events, Event{Kind: EvFree, Seq: seq, Sized: hint != 0})
		case 'w':
			var cyc uint64
			var lines int
			if _, err := fmt.Sscanf(text, "w %d %d", &cyc, &lines); err != nil {
				return nil, fmt.Errorf("workload: bad work line %d: %q", line, text)
			}
			if lines < 0 {
				return nil, fmt.Errorf("workload: negative line count at line %d: %q", line, text)
			}
			t.Events = append(t.Events, Event{Kind: EvWork, Size: cyc, Lines: lines})
		case 'a':
			t.Events = append(t.Events, Event{Kind: EvAntagonize})
		default:
			return nil, fmt.Errorf("workload: unknown event at line %d: %q", line, text)
		}
	}
	return t, sc.Err()
}
