package simsvc

import (
	"testing"
	"time"
)

// fakeClock drives the breaker's cooldown deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func newClockedBreaker(c *fakeClock) *Breaker {
	return NewBreaker(BreakerConfig{
		Window:        8,
		DegradedRatio: 0.5,
		OpenFailures:  3,
		Cooldown:      time.Second,
		Probes:        2,
		Now:           c.now,
	})
}

// TestBreakerTransitions feeds outcome sequences and checks the resulting
// state. Window 8 (ratio reads 0 below 4 samples), degraded at ratio 0.5,
// open at 3 consecutive failures.
func TestBreakerTransitions(t *testing.T) {
	const (
		S = OutcomeSuccess
		F = OutcomeFailure
		A = OutcomeAbandoned
	)
	cases := []struct {
		name string
		feed []Outcome
		want BreakerState
	}{
		{"fresh breaker is healthy", nil, BreakerHealthy},
		{"successes stay healthy", []Outcome{S, S, S, S, S}, BreakerHealthy},
		{"low failure ratio stays healthy", []Outcome{S, F, S, S, F, S, S, S}, BreakerHealthy},
		{"ratio at threshold degrades", []Outcome{F, S, F, S, F, S, F, S}, BreakerDegraded},
		{"degraded recovers as window refills", []Outcome{F, S, F, S, F, S, F, S, S, S, S, S, S, S}, BreakerHealthy},
		{"consecutive failures trip open", []Outcome{F, F, F}, BreakerOpen},
		{"success resets the consecutive count", []Outcome{F, F, S, F, F}, BreakerDegraded},
		{"abandoned neither fails nor resets", []Outcome{F, F, A, F}, BreakerOpen},
		{"early failures below half window read ratio 0", []Outcome{F, S, F}, BreakerHealthy},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newClockedBreaker(newFakeClock())
			for _, o := range tc.feed {
				b.Record(o)
			}
			if got := b.State(); got != tc.want {
				t.Fatalf("after %v: state = %s, want %s", tc.feed, got, tc.want)
			}
		})
	}
}

func TestBreakerOpenShedsUntilCooldown(t *testing.T) {
	c := newFakeClock()
	b := newClockedBreaker(c)
	for i := 0; i < 3; i++ {
		b.Record(OutcomeFailure)
	}
	if b.State() != BreakerOpen || b.opened.Load() != 1 {
		t.Fatalf("state %s opened %d, want open/1", b.State(), b.opened.Load())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a submission")
	}
	c.advance(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("admitted before the cooldown elapsed")
	}
	if b.shed.Load() != 2 {
		t.Fatalf("shed = %d, want 2", b.shed.Load())
	}
	c.advance(2 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("post-cooldown probe was shed")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %s, want half-open", b.State())
	}
}

func TestBreakerHalfOpenProbeLifecycle(t *testing.T) {
	c := newFakeClock()
	b := newClockedBreaker(c)
	for i := 0; i < 3; i++ {
		b.Record(OutcomeFailure)
	}
	c.advance(time.Second)

	// Exactly Probes (2) concurrent probes are admitted.
	if !b.Allow() || !b.Allow() {
		t.Fatal("half-open did not admit its probes")
	}
	if b.Allow() {
		t.Fatal("third concurrent probe must be shed")
	}
	// A success releases the slot but one success is not enough to close.
	b.Record(OutcomeSuccess)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %s, want half-open after 1/2 probe successes", b.State())
	}
	if !b.Allow() {
		t.Fatal("released probe slot not reusable")
	}
	// The second success closes the breaker.
	b.Record(OutcomeSuccess)
	if b.State() != BreakerHealthy {
		t.Fatalf("state = %s, want healthy after probe quorum", b.State())
	}
	if !b.Allow() {
		t.Fatal("healthy breaker must admit")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	c := newFakeClock()
	b := newClockedBreaker(c)
	for i := 0; i < 3; i++ {
		b.Record(OutcomeFailure)
	}
	c.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe shed")
	}
	b.Record(OutcomeFailure)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %s, want open after failed probe", b.State())
	}
	if b.opened.Load() != 2 {
		t.Fatalf("opened = %d, want 2", b.opened.Load())
	}
	// The failed probe restarts the cooldown from the reopen instant.
	if b.Allow() {
		t.Fatal("reopened breaker admitted before a fresh cooldown")
	}
}

// TestBreakerAbandonedReleasesProbeSlot: a canceled probe frees its slot
// without counting toward either verdict — no probe-slot leak.
func TestBreakerAbandonedReleasesProbeSlot(t *testing.T) {
	c := newFakeClock()
	b := newClockedBreaker(c)
	for i := 0; i < 3; i++ {
		b.Record(OutcomeFailure)
	}
	c.advance(time.Second)
	if !b.Allow() || !b.Allow() {
		t.Fatal("probes shed")
	}
	b.Record(OutcomeAbandoned)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %s, want half-open after abandoned probe", b.State())
	}
	if !b.Allow() {
		t.Fatal("abandoned probe's slot was not released")
	}
	b.Record(OutcomeSuccess)
	b.Record(OutcomeSuccess)
	if b.State() != BreakerHealthy {
		t.Fatalf("state = %s, want healthy", b.State())
	}
}

// TestBreakerStateReadTransitions: a health check reading State after the
// cooldown sees half-open, not a stale open.
func TestBreakerStateReadTransitions(t *testing.T) {
	c := newFakeClock()
	b := newClockedBreaker(c)
	for i := 0; i < 3; i++ {
		b.Record(OutcomeFailure)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %s, want open", b.State())
	}
	c.advance(time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %s, want half-open on read after cooldown", b.State())
	}
}

func TestBreakerStateStrings(t *testing.T) {
	want := map[BreakerState]string{
		BreakerHealthy:  "healthy",
		BreakerDegraded: "degraded",
		BreakerHalfOpen: "half-open",
		BreakerOpen:     "open",
		BreakerState(9): "unknown",
	}
	for st, s := range want {
		if st.String() != s {
			t.Errorf("BreakerState(%d).String() = %q, want %q", st, st.String(), s)
		}
	}
}
