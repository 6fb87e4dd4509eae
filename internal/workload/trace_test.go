package workload

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mallacc/internal/stats"
)

func TestRecordCapturesEverything(t *testing.T) {
	app := newFakeApp(t)
	tr := Record(NewGaussFree(), app, 2000, stats.NewRNG(3))
	if tr.Name() != "ubench.gauss_free.trace" {
		t.Errorf("trace name %q", tr.Name())
	}
	var mallocs, frees int
	for _, ev := range tr.Events {
		switch ev.Kind {
		case EvMalloc:
			mallocs++
		case EvFree:
			frees++
		}
	}
	if mallocs != len(app.mallocs) || frees != app.frees {
		t.Fatalf("recorded %d/%d, app saw %d/%d", mallocs, frees, len(app.mallocs), app.frees)
	}
}

func TestTraceRoundTripSerialization(t *testing.T) {
	app := newFakeApp(t)
	tr := Record(NewAntagonist(), app, 1500, stats.NewRNG(9))
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TName != tr.TName || len(back.Events) != len(tr.Events) {
		t.Fatalf("round trip: %q/%d vs %q/%d", back.TName, len(back.Events), tr.TName, len(tr.Events))
	}
	for i := range tr.Events {
		if tr.Events[i] != back.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, tr.Events[i], back.Events[i])
		}
	}
}

func TestReplayMatchesOriginalStream(t *testing.T) {
	// Record tp against one fake app, replay against another: the request
	// streams must be byte-identical.
	a1 := newFakeApp(t)
	tr := Record(NewTP(), a1, 1200, stats.NewRNG(4))
	a2 := newFakeApp(t)
	tr.Run(a2, 0, nil)
	if len(a1.mallocs) != len(a2.mallocs) {
		t.Fatalf("malloc count %d vs %d", len(a1.mallocs), len(a2.mallocs))
	}
	for i := range a1.mallocs {
		if a1.mallocs[i] != a2.mallocs[i] {
			t.Fatalf("malloc %d: %d vs %d", i, a1.mallocs[i], a2.mallocs[i])
		}
	}
	if a1.frees != a2.frees || a1.sized != a2.sized {
		t.Fatalf("free streams differ: %d/%d vs %d/%d", a1.frees, a1.sized, a2.frees, a2.sized)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	cases := []string{
		"x 1\n",
		"m notanumber\n",
		"f 0 1\n", // free before any malloc
		"w 10\n",  // missing lines field
	}
	for _, c := range cases {
		if _, err := ReadTrace(strings.NewReader(c)); err == nil {
			t.Errorf("ReadTrace(%q) accepted garbage", c)
		}
	}
}

// TestReadTraceBoundsFootprint: a footprint of exactly MaxFootprint parses,
// one byte more is rejected with an error naming the limit, so no parsed
// trace can place footprint touches beyond the cache models' tag range;
// a workload built in code with a larger footprint panics in FootprintOf
// before any run starts.
func TestReadTraceBoundsFootprint(t *testing.T) {
	tr, err := ReadTrace(strings.NewReader(fmt.Sprintf("trace t %d\nm 64\n", uint64(MaxFootprint))))
	if err != nil || tr.Footprint != MaxFootprint {
		t.Fatalf("footprint at the limit: %v, %v", tr, err)
	}
	_, err = ReadTrace(strings.NewReader(fmt.Sprintf("trace t %d\nm 64\n", uint64(MaxFootprint)+1)))
	if err == nil || !strings.Contains(err.Error(), "2^43") {
		t.Fatalf("footprint over the limit: error %v, want one naming the 2^43 limit", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FootprintOf accepted a footprint above MaxFootprint")
		}
	}()
	FootprintOf(&Trace{TName: "big", Footprint: MaxFootprint + 1})
}

func TestReplayPanicsOnDoubleFree(t *testing.T) {
	tr := &Trace{TName: "bad", Events: []Event{
		{Kind: EvMalloc, Size: 64},
		{Kind: EvFree, Seq: 0},
		{Kind: EvFree, Seq: 0},
	}}
	defer func() {
		if recover() == nil {
			t.Fatal("double-free trace did not panic")
		}
	}()
	tr.Run(newFakeApp(t), 0, nil)
}

func TestTraceFootprintPropagates(t *testing.T) {
	app := newFakeApp(t)
	tr := Record(NewXapianPages(), app, 500, stats.NewRNG(1))
	if FootprintOf(tr) != FootprintOf(NewXapianPages()) {
		t.Fatal("trace lost its footprint")
	}
}
