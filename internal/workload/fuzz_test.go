package workload

import (
	"bytes"
	"testing"
)

// FuzzReadTrace checks that arbitrary (malformed, truncated, hostile)
// trace input either parses into a trace that replays cleanly or returns
// an error — never a panic. Double frees and negative work-line counts
// must be rejected at parse time, not blow up later in Run, and so must a
// footprint above MaxFootprint, which would reach past the cache models'
// tag range.
func FuzzReadTrace(f *testing.F) {
	f.Add([]byte("trace t 4096\nm 64\nw 100 2\nf 0 1\na\n"))
	f.Add([]byte("m 64\nf 0 0\nf 0 0\n"))                  // double free
	f.Add([]byte("w 10 -3\n"))                             // negative line count
	f.Add([]byte("f 5 0\n"))                               // free before malloc
	f.Add([]byte("trace"))                                 // truncated header
	f.Add([]byte("m 18446744073709551615"))                // max uint64 size
	f.Add([]byte("m 64\nf 0"))                             // truncated free
	f.Add([]byte("x 1 2\n"))                               // unknown event
	f.Add([]byte("trace t 8796093022208\nm 64\nw 10 3\n")) // footprint at the 2^43 limit
	f.Add([]byte("trace t 8796093022209\nw 10 3\n"))       // one byte over the limit
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if tr.Footprint > MaxFootprint {
			t.Fatalf("accepted footprint %d above MaxFootprint", tr.Footprint)
		}
		// Anything ReadTrace accepts must replay without panicking.
		tr.Run(&nullApp{next: 1 << 30}, 0, nil)
	})
}
