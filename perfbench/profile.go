package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profile the traced run takes with runtime/pprof
// and charges each sample to one layer. The profile is a gzipped
// profile.proto message; only the fields needed to walk a sample's stack
// are decoded, so the benchmark keeps to the standard library.

// sample is one stack of a CPU profile, leaf frame first, with the CPU
// time it stands for.
type sample struct {
	frames []string // function names, innermost first
	nanos  int64
}

// simLayers are the simulator and service modules reported by name:
// mallacc/internal/<name>.
var simLayers = []string{
	"cachesim", "cpu", "uop", "tcmalloc", "core", "workload", "mem", "stats",
	"telemetry", "harness", "multicore", "lockfree", "offload", "simsvc", "fleet",
}

// hostLayers are the Go runtime and transport groups.
var hostLayers = []string{"gc", "sched", "http"}

// layerOf charges a stack to the layer of its innermost frame that belongs
// to one. Generic helpers — runtime copies and map probes, math, sort,
// strconv, hashing, reflection, os and syscall plumbing — belong to no
// layer and pass the sample on to their caller. It returns "" for a stack
// that reaches a frame of code outside every layer (the benchmark itself,
// the profiler, modules not listed) or holds only helpers.
func layerOf(frames []string) string {
	allRuntime := true
	for _, f := range frames {
		pkg, name := splitFunc(f)
		switch {
		case strings.HasPrefix(pkg, "mallacc/internal/"):
			mod, _, _ := strings.Cut(strings.TrimPrefix(pkg, "mallacc/internal/"), "/")
			return mod
		case pkg == "runtime":
			if l := runtimeLayer(name); l != "" {
				return l
			}
			continue
		case pkg == "sync" || pkg == "sync/atomic" || pkg == "internal/sync":
			return "sched"
		case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "encoding/json" ||
			strings.HasPrefix(pkg, "vendor/golang.org/x/net/"):
			return "http"
		case isHelper(pkg):
			allRuntime = false
			continue
		default:
			return ""
		}
	}
	if allRuntime && len(frames) > 0 {
		// Runtime-only stacks are the scheduler's own threads (mstart,
		// sysmon, idle Ps) once GC frames are ruled out above.
		return "sched"
	}
	return ""
}

// splitFunc splits "mallacc/internal/cpu.(*Core).Step" into its package
// path and the rest. The package ends at the first dot after the last
// slash.
func splitFunc(f string) (pkg, name string) {
	slash := strings.LastIndex(f, "/")
	dot := strings.Index(f[slash+1:], ".")
	if dot < 0 {
		return f, ""
	}
	return f[:slash+1+dot], f[slash+2+dot:]
}

// helperPkgs are standard-library packages that do work on behalf of their
// caller; a sample inside one is charged to the nearest caller in a layer.
var helperPkgs = []string{
	"math", "sort", "slices", "maps", "strconv", "strings", "bytes", "unicode",
	"reflect", "fmt", "hash", "crypto", "encoding", "io", "bufio", "os",
	"syscall", "time", "context", "errors", "internal", "compress", "container",
	"path", "mime",
}

func isHelper(pkg string) bool {
	root, _, _ := strings.Cut(pkg, "/")
	for _, h := range helperPkgs {
		if root == h {
			return true
		}
	}
	return false
}

var gcPrefixes = []string{
	"mallocgc", "newobject", "newarray", "makeslice", "makemap", "growslice",
	"gc", "GC", "mark", "scan", "sweep", "bgsweep", "bgscavenge", "greyobject",
	"findObject", "heapBits", "heapSetType", "nextFreeFast", "deductAssistCredit",
	"wbBuf", "wbMove", "wbZero", "bulkBarrier", "sysUnused", "sysUsed", "sysAlloc",
	"sysFree", "sysMap", "sysHuge", "persistentalloc", "(*mspan)", "(*mcache)",
	"(*mcentral)", "(*mheap)", "(*gcWork)", "(*gcControllerState)", "(*pageAlloc)",
	"(*scavenge", "(*sweepLocked)", "(*gcBits", "(*spanSet)", "(*mSpanList)",
	"(*activeSweep)", "(*gcCPULimiterState)", "(*wbBuf)", "(*fixalloc)",
}

var schedPrefixes = []string{
	"schedule", "findRunnable", "findrunnable", "park_m", "gopark", "goready",
	"ready", "runq", "globrunq", "stealWork", "checkTimers", "futex", "note",
	"sema", "lock", "unlock", "mcall", "gosched", "netpoll", "usleep", "osyield",
	"procyield", "mPark", "stopm", "startm", "handoffp", "wakep", "resetspinning",
	"execute", "gogo", "goexit", "newproc", "chanrecv", "chansend", "selectgo",
	"closechan", "runtimer", "sysmon", "retake", "epollwait", "exitsyscall",
	"entersyscall", "reentersyscall", "mstart", "park", "acquirep", "releasep",
	"preempt", "asyncPreempt", "morestack", "newstack", "copystack", "casgstatus",
	"injectglist", "timeSleep", "(*timer)", "(*timers)", "(*waitq)", "(*semaRoot)",
	"(*p)", "(*randomOrder)", "notifyList", "(*hchan)",
}

// runtimeLayer classifies a runtime function: allocation and collection
// are "gc", goroutine scheduling, parking and timers are "sched", and
// anything else ("" — memmove, map probes, hashing) is a helper.
func runtimeLayer(name string) string {
	for _, p := range gcPrefixes {
		if strings.HasPrefix(name, p) {
			return "gc"
		}
	}
	for _, p := range schedPrefixes {
		if strings.HasPrefix(name, p) {
			return "sched"
		}
	}
	return ""
}

// attribute sums the CPU seconds of each layer and returns them with the
// share of all CPU time the named layers cover, in percent.
func attribute(samples []sample) (self map[string]float64, coveredPct float64) {
	named := map[string]bool{}
	self = map[string]float64{}
	for _, l := range append(append([]string(nil), simLayers...), hostLayers...) {
		named[l] = true
		self[l] = 0
	}
	var total, covered int64
	for _, s := range samples {
		total += s.nanos
		if l := layerOf(s.frames); named[l] {
			self[l] += float64(s.nanos) / 1e9
			covered += s.nanos
		}
	}
	if total > 0 {
		coveredPct = 100 * float64(covered) / float64(total)
	}
	return self, coveredPct
}

// decodeProfile parses a gzipped pprof CPU profile into stacks weighted by
// the "cpu" sample value.
func decodeProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		strs      []string
		typeNames []uint64 // string indices of each sample type
		samples   []rawSample
		funcName  = map[uint64]uint64{}   // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeNames = append(typeNames, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					return appendVarints(&s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cpu := -1
	for i, t := range typeNames {
		if t < uint64(len(strs)) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					frames = append(frames, strs[idx])
				}
			}
		}
		out = append(out, sample{frames: frames, nanos: int64(s.vals[cpu])})
	}
	return out, nil
}

// appendVarints adds one repeated-integer field occurrence to dst: either
// a single varint (v) or a packed run (b).
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks a protobuf message, calling fn with each field number
// and either its varint value (b == nil) or its length-delimited bytes.
// Fixed-width fields carry nothing the decoder needs and are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := varint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := varint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning the byte count or 0 on
// truncation.
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
