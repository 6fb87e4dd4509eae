package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf encoder for building canned profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(x uint64) {
	for x >= 0x80 {
		b.WriteByte(byte(x) | 0x80)
		x >>= 7
	}
	b.WriteByte(byte(x))
}

func (b *pb) uint(field int, x uint64) { b.varint(uint64(field)<<3 | 0); b.varint(x) }

func (b *pb) bytesField(field int, p []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(p)))
	b.Write(p)
}

func (b *pb) packed(field int, xs ...uint64) {
	var inner pb
	for _, x := range xs {
		inner.varint(x)
	}
	b.bytesField(field, inner.Bytes())
}

// cannedProfile encodes a CPU profile whose samples are the given stacks
// (function names, innermost first) with their CPU nanoseconds. The first
// stack's location is written with inlined lines, and single-location
// stacks use the unpacked repeated encoding, as runtime/pprof does.
func cannedProfile(t *testing.T, stacks [][]string, nanos []int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var prof pb
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt pb
		vt.uint(1, str(st[0]))
		vt.uint(2, str(st[1]))
		prof.bytesField(1, vt.Bytes())
	}
	funcID := map[string]uint64{}
	nextLoc := uint64(1)
	for i, stack := range stacks {
		var locs []uint64
		// The first stack's two innermost frames share one location: an
		// inlined call.
		for j := 0; j < len(stack); {
			var loc pb
			loc.uint(1, nextLoc)
			n := 1
			if i == 0 && j == 0 && len(stack) > 1 {
				n = 2
			}
			for _, fn := range stack[j : j+n] {
				id, ok := funcID[fn]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[fn] = id
					var f pb
					f.uint(1, id)
					f.uint(2, str(fn))
					prof.bytesField(5, f.Bytes())
				}
				var line pb
				line.uint(1, id)
				line.uint(2, 42)
				loc.bytesField(4, line.Bytes())
			}
			prof.bytesField(4, loc.Bytes())
			locs = append(locs, nextLoc)
			nextLoc++
			j += n
		}
		var s pb
		if len(locs) == 1 {
			s.uint(1, locs[0])
		} else {
			s.packed(1, locs...)
		}
		s.packed(2, 1, uint64(nanos[i]))
		prof.bytesField(2, s.Bytes())
	}
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributionOnCannedProfile(t *testing.T) {
	stacks := [][]string{
		// Inlined leaf in the cache model.
		{"mallacc/internal/cachesim.(*Cache).lookup", "mallacc/internal/cachesim.(*Cache).Access", "mallacc/internal/cpu.(*Core).Step"},
		// A runtime copy is charged to its caller.
		{"runtime.memmove", "mallacc/internal/uop.(*Emitter).Emit", "mallacc/internal/harness.Run"},
		// Allocation and collection are gc, wherever they are called from.
		{"runtime.mallocgc", "mallacc/internal/tcmalloc.(*Heap).Malloc"},
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		// Scheduler and sync are sched.
		{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.schedule"},
		{"sync.(*Mutex).Lock", "mallacc/internal/simsvc.(*Cache).Get"},
		// Transport: a syscall under net is http; json encoding too.
		{"syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write", "net/http.(*conn).serve"},
		{"encoding/json.(*encodeState).marshal", "mallacc/internal/simsvc.(*Service).execute"},
		// File IO under simsvc's cache is simsvc.
		{"syscall.Syscall", "os.(*File).Sync", "mallacc/internal/simsvc.(*Cache).Put"},
		// The benchmark's own code and the profiler are outside every layer.
		{"strconv.ParseFloat", "main.reportCounts"},
		{"compress/flate.(*compressor).deflate", "runtime/pprof.profileWriter"},
	}
	nanos := []int64{3e7, 1e7, 2e7, 1e7, 1e7, 1e7, 1e7, 1e7, 1e7, 1e7, 1e7}
	samples, err := decodeProfile(cannedProfile(t, stacks, nanos))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(stacks))
	}
	if got := samples[0].frames; len(got) != 3 || got[0] != stacks[0][0] || got[1] != stacks[0][1] {
		t.Fatalf("inlined frames decoded as %v", got)
	}
	self, covered := attribute(samples)
	want := map[string]float64{
		"cachesim": 0.03, "uop": 0.01, "gc": 0.03, "sched": 0.02,
		"http": 0.02, "simsvc": 0.01, "cpu": 0, "tcmalloc": 0,
	}
	for l, w := range want {
		if math.Abs(self[l]-w) > 1e-9 {
			t.Errorf("%s.self_s = %v, want %v", l, self[l], w)
		}
	}
	// 0.12 s of 0.14 s lands in named layers.
	if math.Abs(covered-100*12.0/14.0) > 1e-9 {
		t.Errorf("covered = %v%%, want %v%%", covered, 100*12.0/14.0)
	}
}

func TestSplitFunc(t *testing.T) {
	for _, c := range []struct{ in, pkg, name string }{
		{"mallacc/internal/cpu.(*Core).Step", "mallacc/internal/cpu", "(*Core).Step"},
		{"runtime.mallocgc", "runtime", "mallocgc"},
		{"net/http.(*conn).serve.func1", "net/http", "(*conn).serve.func1"},
		{"gopkg.in/x.v2/y.F", "gopkg.in/x.v2/y", "F"},
	} {
		if pkg, name := splitFunc(c.in); pkg != c.pkg || name != c.name {
			t.Errorf("splitFunc(%q) = %q, %q", c.in, pkg, name)
		}
	}
}

// A real profile from runtime/pprof decodes and attributes its busy loop.
func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 1.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	pprof.StopCPUProfile()
	sink = x
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range samples {
		total += s.nanos
		if len(s.frames) == 0 {
			t.Fatal("sample with no frames")
		}
	}
	if total <= 0 {
		t.Fatal("profile holds no CPU time")
	}
}

var sink float64

// BENCHMARK.json at the checkout root names exactly the metrics this
// program prints, with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workload {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
}
