package faults

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mallacc/internal/retry"
	"mallacc/internal/telemetry"
)

func prob(p float64) *float64 { return &p }

func TestDisabledInjectIsNil(t *testing.T) {
	Deactivate()
	if active.Load() != nil {
		t.Fatal("no registry should be active")
	}
	for i := 0; i < 1000; i++ {
		if err := Inject(PointExec); err != nil {
			t.Fatal("disabled injection returned an error")
		}
	}
}

func TestAlwaysFireAndCounters(t *testing.T) {
	r, err := New(Spec{Rules: []RuleSpec{{Point: "p"}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		err := r.Inject("p")
		if err == nil {
			t.Fatal("prob-1 rule must fire every check")
		}
		var ie *InjectedError
		if !errors.As(err, &ie) || !errors.Is(err, ErrInjected) {
			t.Fatalf("wrong error type: %v", err)
		}
		if !retry.IsTransient(err) {
			t.Fatal("default class must be transient")
		}
	}
	if got := r.points["p"].injected.Load(); got != 5 {
		t.Fatalf("injected = %d, want 5", got)
	}
	if err := r.Inject("other.point"); err != nil {
		t.Fatal("unconfigured point fired")
	}
}

func TestPermanentClass(t *testing.T) {
	r, _ := New(Spec{Rules: []RuleSpec{{Point: "p", Class: ClassPermanent}}})
	if err := r.Inject("p"); retry.IsTransient(err) {
		t.Fatal("permanent class classified transient")
	}
}

func TestCountAndSkip(t *testing.T) {
	// Skip the first 2 checks, then fire at most 3 times.
	r, _ := New(Spec{Rules: []RuleSpec{{Point: "p", Skip: 2, Count: 3}}})
	var fired []int
	for i := 0; i < 10; i++ {
		if r.Inject("p") != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 3 || fired[0] != 2 || fired[2] != 4 {
		t.Fatalf("fired at %v, want [2 3 4]", fired)
	}
}

// TestSeededDeterminism: the same seed and check sequence replays the
// same fire schedule; a different seed diverges.
func TestSeededDeterminism(t *testing.T) {
	schedule := func(seed uint64) []bool {
		r, err := New(Spec{Seed: seed, Rules: []RuleSpec{{Point: "p", Prob: prob(0.3)}}})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 200)
		for i := range out {
			out[i] = r.Inject("p") != nil
		}
		return out
	}
	a, b, c := schedule(7), schedule(7), schedule(8)
	same := func(x, y []bool) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if same(a, c) {
		t.Fatal("different seeds produced the same schedule (suspicious)")
	}
	fires := 0
	for _, f := range a {
		if f {
			fires++
		}
	}
	if fires < 30 || fires > 90 {
		t.Fatalf("prob 0.3 fired %d/200 times, far from expectation", fires)
	}
}

// TestRuleOrder: the first rule that fires wins; an exhausted rule
// passes the check to the next.
func TestRuleOrder(t *testing.T) {
	r, _ := New(Spec{Rules: []RuleSpec{
		{Point: "p", Count: 2, Msg: "burst"},
		{Point: "p", Class: ClassPermanent, Msg: "steady"},
	}})
	var msgs []string
	for i := 0; i < 4; i++ {
		var ie *InjectedError
		if err := r.Inject("p"); errors.As(err, &ie) {
			msgs = append(msgs, ie.Msg)
		}
	}
	want := []string{"burst", "burst", "steady", "steady"}
	for i := range want {
		if msgs[i] != want[i] {
			t.Fatalf("fire %d = %q, want %q (all: %v)", i, msgs[i], want[i], msgs)
		}
	}
}

func TestLatencyMode(t *testing.T) {
	r, _ := New(Spec{Rules: []RuleSpec{{Point: "p", Mode: ModeLatency, Latency: "20ms"}}})
	start := time.Now()
	if err := r.Inject("p"); err != nil {
		t.Fatalf("latency mode returned an error: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("latency rule slept only %v", elapsed)
	}
	if r.points["p"].injected.Load() != 1 {
		t.Fatal("latency fire not counted as injected")
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Rules: []RuleSpec{{Point: ""}}},
		{Rules: []RuleSpec{{Point: "p", Prob: prob(1.5)}}},
		{Rules: []RuleSpec{{Point: "p", Prob: prob(-0.1)}}},
		{Rules: []RuleSpec{{Point: "p", Count: -1}}},
		{Rules: []RuleSpec{{Point: "p", Mode: "explode"}}},
		{Rules: []RuleSpec{{Point: "p", Class: "fatal"}}},
		{Rules: []RuleSpec{{Point: "p", Latency: "fast"}}},
		{Rules: []RuleSpec{{Point: "p", Mode: ModeLatency}}}, // no latency given
	}
	for i, s := range bad {
		if _, err := New(s); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
}

func TestParseSpecForms(t *testing.T) {
	// JSON form.
	s, err := ParseSpec(`{"seed":7,"rules":[{"point":"simsvc.exec","prob":0.25,"count":3}]}`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || len(s.Rules) != 1 || *s.Rules[0].Prob != 0.25 || s.Rules[0].Count != 3 {
		t.Fatalf("JSON parse: %+v", s)
	}

	// Compact form.
	s, err = ParseSpec("seed=9; simsvc.exec,prob=1,count=6; simsvc.http,prob=0.1,mode=latency,latency=5ms")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 9 || len(s.Rules) != 2 {
		t.Fatalf("compact parse: %+v", s)
	}
	if s.Rules[0].Point != "simsvc.exec" || *s.Rules[0].Prob != 1 || s.Rules[0].Count != 6 {
		t.Fatalf("rule 0: %+v", s.Rules[0])
	}
	if s.Rules[1].Mode != ModeLatency || s.Rules[1].Latency != "5ms" {
		t.Fatalf("rule 1: %+v", s.Rules[1])
	}

	// @file form.
	path := filepath.Join(t.TempDir(), "faults.json")
	if err := os.WriteFile(path, []byte(`{"rules":[{"point":"p"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = ParseSpec("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rules) != 1 || s.Rules[0].Point != "p" {
		t.Fatalf("@file parse: %+v", s)
	}

	// Rejections.
	for _, bad := range []string{
		"", "prob=0.5", "p,prob=banana", "p,unknown=1", `{"rules":[{"point":"p","bogus":1}]}`,
		"@/no/such/file.json", "seed=notanumber;p",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv(EnvVar, "seed=3;p,prob=0.5")
	r, err := FromEnv()
	if err != nil || r == nil {
		t.Fatalf("FromEnv: %v, %v", r, err)
	}
	if got := r.Points(); len(got) != 1 || got[0] != "p" {
		t.Fatalf("points = %v", got)
	}

	t.Setenv(EnvVar, "")
	r, err = FromEnv()
	if err != nil || r != nil {
		t.Fatalf("empty env should be (nil, nil), got %v, %v", r, err)
	}

	t.Setenv(EnvVar, "seed=bogus garbage")
	if _, err := FromEnv(); err == nil {
		t.Fatal("garbage env accepted")
	}
}

func TestGlobalActivation(t *testing.T) {
	r, _ := New(Spec{Rules: []RuleSpec{{Point: "p", Msg: "global"}}})
	Activate(r)
	defer Deactivate()
	if active.Load() != r {
		t.Fatal("activation not visible")
	}
	if err := Inject("p"); err == nil || !strings.Contains(err.Error(), "global") {
		t.Fatalf("global inject: %v", err)
	}
	Deactivate()
	if Inject("p") != nil {
		t.Fatal("deactivated registry still firing")
	}
}

func TestRegisterMetrics(t *testing.T) {
	r, _ := New(Spec{Rules: []RuleSpec{
		{Point: "a", Prob: prob(1)},
		{Point: "b", Prob: prob(0)},
	}})
	reg := telemetry.NewRegistry()
	r.RegisterMetrics(reg)
	r.Inject("a")
	r.Inject("a")
	r.Inject("b")
	snap := reg.Snapshot()
	if got := snap.Value("faults.injected.a"); got != 2 {
		t.Fatalf("faults.injected.a = %v, want 2", got)
	}
	if got := snap.Value("faults.checked.a"); got != 2 {
		t.Fatalf("faults.checked.a = %v, want 2", got)
	}
	if got := snap.Value("faults.injected.b"); got != 0 {
		t.Fatalf("faults.injected.b = %v, want 0", got)
	}
	if got := snap.Value("faults.checked.b"); got != 1 {
		t.Fatalf("faults.checked.b = %v, want 1", got)
	}
}
