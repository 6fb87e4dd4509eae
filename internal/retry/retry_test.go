package retry

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestClassification is the table the scheduler's retry decision rests
// on: explicit markers win, the outermost marker dominates, net errors
// default transient, everything else permanent.
func TestClassification(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain error", base, false},
		{"marked transient", Transient(base), true},
		{"marked permanent", Permanent(base), false},
		{"wrapped transient", fmt.Errorf("op: %w", Transient(base)), true},
		{"wrapped permanent", fmt.Errorf("op: %w", Permanent(base)), false},
		{"outer marker wins", Permanent(Transient(base)), false},
		{"outer transient over inner permanent", Transient(Permanent(base)), true},
		{"net error defaults transient", &net.OpError{Op: "dial", Err: base}, true},
		{"net timeout transient", &net.DNSError{IsTimeout: true}, true},
		{"context canceled", context.Canceled, false},
		{"deadline exceeded", context.DeadlineExceeded, false},
		{"after error is transient", &AfterError{Err: base, After: time.Second}, true},
		{"wrapped after error", fmt.Errorf("submit: %w", &AfterError{Err: base}), true},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("%s: IsTransient = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTransientHTTPStatus(t *testing.T) {
	cases := []struct {
		code int
		want bool
	}{
		{200, false}, {202, false}, {400, false}, {404, false}, {409, false},
		{408, true}, {429, true},
		{500, true}, {502, true}, {503, true}, {504, true}, {599, true},
		{501, false},
		{600, false}, {0, false},
	}
	for _, c := range cases {
		if got := TransientHTTPStatus(c.code); got != c.want {
			t.Errorf("code %d: %v, want %v", c.code, got, c.want)
		}
	}
}

// TestReadResponse is the table every HTTP client's retry decision rests
// on: the server's error message surfaces, 4xx and 501 are permanent,
// throttling and 5xx are transient, and a Retry-After hint becomes an
// *AfterError the Do loop waits out.
func TestReadResponse(t *testing.T) {
	cases := []struct {
		name       string
		code       int
		retryAfter string
		body       string
		transient  bool
		after      time.Duration
		msg        string
	}{
		{"ok", 200, "", `{"id":"j1"}`, false, 0, ""},
		{"bad spec", 400, "", `{"error":"unknown workload"}`, false, 0, "400 Bad Request: unknown workload"},
		{"throttled with hint", 429, "1", `{"error":"queue full"}`, true, time.Second, "429 Too Many Requests: queue full"},
		{"unavailable without hint", 503, "", `{"error":"draining"}`, true, 0, "503 Service Unavailable: draining"},
		{"not implemented", 501, "1", `not json`, false, 0, "501 Not Implemented"},
	}
	for _, c := range cases {
		resp := &http.Response{
			StatusCode: c.code,
			Status:     fmt.Sprintf("%d %s", c.code, http.StatusText(c.code)),
			Header:     http.Header{},
			Body:       io.NopCloser(strings.NewReader(c.body)),
		}
		if c.retryAfter != "" {
			resp.Header.Set("Retry-After", c.retryAfter)
		}
		body, err := ReadResponse(resp, 1<<20)
		if c.code < 300 {
			if err != nil || string(body) != c.body {
				t.Errorf("%s: body %q, err %v", c.name, body, err)
			}
			continue
		}
		if err == nil || body != nil {
			t.Errorf("%s: body %q, err %v; want an error and no body", c.name, body, err)
			continue
		}
		if got := IsTransient(err); got != c.transient {
			t.Errorf("%s: transient %v, want %v", c.name, got, c.transient)
		}
		var ae *AfterError
		if got := errors.As(err, &ae); got != (c.after > 0) || (got && ae.After != c.after) {
			t.Errorf("%s: AfterError %v (%+v), want after %v", c.name, got, ae, c.after)
		}
		if !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.msg)
		}
	}
}

// TestBackoffJitterBounds pins the full-jitter contract: every draw for
// attempt n lies in [0, min(Max, Base·2ⁿ)), and the ceiling saturates at
// Max instead of overflowing.
func TestBackoffJitterBounds(t *testing.T) {
	b := NewBackoff(10*time.Millisecond, 80*time.Millisecond, 42)
	wantCeil := []time.Duration{
		10 * time.Millisecond, // attempt 0
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond, // capped
		80 * time.Millisecond,
	}
	for attempt, ceil := range wantCeil {
		if got := b.Ceiling(attempt); got != ceil {
			t.Fatalf("Ceiling(%d) = %v, want %v", attempt, got, ceil)
		}
		for i := 0; i < 200; i++ {
			d := b.Delay(attempt)
			if d < 0 || d >= ceil {
				t.Fatalf("Delay(%d) = %v outside [0, %v)", attempt, d, ceil)
			}
		}
	}
	// Huge attempt numbers must not overflow past Max.
	if got := b.Ceiling(64); got != 80*time.Millisecond {
		t.Fatalf("Ceiling(64) = %v, want saturated 80ms", got)
	}
	if got := b.Ceiling(-3); got != 10*time.Millisecond {
		t.Fatalf("Ceiling(-3) = %v, want attempt-0 ceiling", got)
	}
}

// TestBackoffDeterministic: the same seed replays the same jitter
// sequence — the property chaos runs rely on.
func TestBackoffDeterministic(t *testing.T) {
	a := NewBackoff(time.Millisecond, time.Second, 7)
	b := NewBackoff(time.Millisecond, time.Second, 7)
	for i := 0; i < 50; i++ {
		if da, db := a.Delay(i%6), b.Delay(i%6); da != db {
			t.Fatalf("draw %d diverged: %v vs %v", i, da, db)
		}
	}
}

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	p := Policy{MaxAttempts: 5, Backoff: NewBackoff(time.Microsecond, time.Microsecond*2, 1)}
	err := p.Do(context.Background(), func(attempt int) error {
		if attempt != calls {
			t.Fatalf("attempt %d, want %d", attempt, calls)
		}
		calls++
		if calls < 3 {
			return Transient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err = %v, calls = %d", err, calls)
	}
}

func TestDoStopsOnPermanent(t *testing.T) {
	calls := 0
	p := Policy{MaxAttempts: 5, Backoff: NewBackoff(time.Microsecond, time.Microsecond*2, 1)}
	err := p.Do(context.Background(), func(int) error {
		calls++
		return Permanent(errors.New("bad spec"))
	})
	if err == nil || calls != 1 {
		t.Fatalf("permanent error retried: err = %v, calls = %d", err, calls)
	}
	if errors.Is(err, ErrBudgetExhausted) {
		t.Fatal("permanent abort must not report budget exhaustion")
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	calls := 0
	p := Policy{MaxAttempts: 3, Backoff: NewBackoff(time.Microsecond, time.Microsecond*2, 1)}
	err := p.Do(context.Background(), func(int) error {
		calls++
		return Transient(errors.New("still down"))
	})
	if !errors.Is(err, ErrBudgetExhausted) || calls != 3 {
		t.Fatalf("err = %v, calls = %d, want budget exhaustion after 3", err, calls)
	}
}

// TestDoBudgetCap: once the next wait would cross the budget, Do gives
// up instead of sleeping past it.
func TestDoBudgetCap(t *testing.T) {
	calls := 0
	clock := time.Unix(0, 0)
	p := Policy{
		MaxAttempts: 100,
		Backoff:     NewBackoff(40*time.Millisecond, 40*time.Millisecond, 1),
		Budget:      time.Millisecond, // any positive wait crosses it
		now:         func() time.Time { return clock },
	}
	err := p.Do(context.Background(), func(int) error {
		calls++
		// Force a wait at least 1ms so the budget check trips even when
		// the jitter draw is tiny.
		return &AfterError{Err: errors.New("busy"), After: 2 * time.Millisecond}
	})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (budget cannot afford a second)", calls)
	}
}

// TestDoHonorsRetryAfter: the server hint stretches the wait beyond the
// jitter draw.
func TestDoHonorsRetryAfter(t *testing.T) {
	start := time.Now()
	calls := 0
	p := Policy{MaxAttempts: 2, Backoff: NewBackoff(time.Microsecond, time.Microsecond*2, 1)}
	p.Do(context.Background(), func(int) error {
		calls++
		return &AfterError{Err: errors.New("throttled"), After: 30 * time.Millisecond}
	})
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("retry fired after %v, before the 30ms Retry-After hint", elapsed)
	}
}

func TestDoContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Policy{MaxAttempts: 3}
	err := p.Do(ctx, func(int) error { t.Fatal("op ran under dead context"); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
