package simsvc

import (
	"sync"
	"sync/atomic"
	"time"

	"mallacc/internal/telemetry"
)

// BreakerState is the circuit breaker's health position, ordered by
// severity: healthy < degraded < half-open < open.
type BreakerState int32

const (
	// BreakerHealthy: all submissions admitted.
	BreakerHealthy BreakerState = iota
	// BreakerDegraded: failure ratio elevated; submissions still
	// admitted, but /v1/healthz warns.
	BreakerDegraded
	// BreakerHalfOpen: post-cooldown probing; a bounded number of
	// submissions pass through to test the water, the rest are shed.
	BreakerHalfOpen
	// BreakerOpen: load shed — every uncached submission is rejected with
	// ErrBreakerOpen (HTTP 503) until the cooldown elapses.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerHealthy:
		return "healthy"
	case BreakerDegraded:
		return "degraded"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// BreakerConfig sizes the circuit breaker. The zero value takes all
// defaults.
type BreakerConfig struct {
	// Window is the sliding outcome window the failure ratio is computed
	// over (default 16).
	Window int
	// DegradedRatio is the window failure ratio at which the breaker
	// reports degraded (default 0.25).
	DegradedRatio float64
	// OpenFailures is the consecutive-failure count that opens the
	// breaker (default 5).
	OpenFailures int
	// Cooldown is how long the breaker stays open before probing
	// (default 2s).
	Cooldown time.Duration
	// Probes is both the number of half-open submissions admitted at a
	// time and the successes required to close (default 2).
	Probes int
	// Now is the clock (tests inject a fake; default time.Now).
	Now func() time.Time
}

// Outcome is one observed attempt result fed to the breaker.
type Outcome int

const (
	// OutcomeSuccess: the attempt produced a report.
	OutcomeSuccess Outcome = iota
	// OutcomeFailure: the attempt failed (including each transient
	// failure of a retried job — the breaker sees the storm, not just
	// final verdicts).
	OutcomeFailure
	// OutcomeAbandoned: the attempt was canceled before producing a
	// verdict; it releases any probe slot without counting either way.
	OutcomeAbandoned
)

// Breaker is a circuit breaker over job execution outcomes. Allow gates
// new submissions; Record feeds attempt outcomes back. All methods are
// safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu          sync.Mutex
	state       BreakerState
	window      []bool // ring of recent outcomes, true = failure
	wlen, wpos  int
	consecFails int
	openedAt    time.Time
	changedAt   time.Time // when state last transitioned; feeds StateAge
	probesOut   int       // half-open probes admitted and not yet resolved
	probeOKs    int

	opened, shed atomic.Uint64
}

// NewBreaker builds a breaker, applying defaults to cfg's zero fields.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Window <= 0 {
		cfg.Window = 16
	}
	if cfg.DegradedRatio <= 0 {
		cfg.DegradedRatio = 0.25
	}
	if cfg.OpenFailures <= 0 {
		cfg.OpenFailures = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 2 * time.Second
	}
	if cfg.Probes <= 0 {
		cfg.Probes = 2
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg, window: make([]bool, cfg.Window), changedAt: cfg.Now()}
}

// setStateLocked moves to st, stamping the transition time only on actual
// changes so StateAge reads how long the breaker has held its position.
func (b *Breaker) setStateLocked(st BreakerState) {
	if b.state != st {
		b.state = st
		b.changedAt = b.cfg.Now()
	}
}

// Allow reports whether a new submission may proceed. Open sheds until
// the cooldown elapses, then flips to half-open and admits up to Probes
// concurrent probes.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen {
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			b.shed.Add(1)
			return false
		}
		b.setStateLocked(BreakerHalfOpen)
		b.probesOut, b.probeOKs = 0, 0
	}
	if b.state == BreakerHalfOpen {
		if b.probesOut >= b.cfg.Probes {
			b.shed.Add(1)
			return false
		}
		b.probesOut++
		return true
	}
	return true
}

// Record feeds one attempt outcome back into the breaker.
func (b *Breaker) Record(o Outcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		// A straggler attempt from before the trip; nothing to learn.
		return
	case BreakerHalfOpen:
		if b.probesOut > 0 {
			b.probesOut--
		}
		switch o {
		case OutcomeAbandoned:
			// Probe slot released, no verdict.
		case OutcomeFailure:
			b.tripLocked()
		case OutcomeSuccess:
			b.probeOKs++
			if b.probeOKs >= b.cfg.Probes {
				b.setStateLocked(BreakerHealthy)
				b.resetWindowLocked()
			}
		}
		return
	}
	// Healthy / degraded.
	if o == OutcomeAbandoned {
		return
	}
	fail := o == OutcomeFailure
	b.pushLocked(fail)
	if fail {
		b.consecFails++
		if b.consecFails >= b.cfg.OpenFailures {
			b.tripLocked()
			return
		}
	} else {
		b.consecFails = 0
	}
	if b.failureRatioLocked() >= b.cfg.DegradedRatio {
		b.setStateLocked(BreakerDegraded)
	} else {
		b.setStateLocked(BreakerHealthy)
	}
}

// tripLocked opens the breaker and starts the cooldown clock.
func (b *Breaker) tripLocked() {
	b.setStateLocked(BreakerOpen)
	b.openedAt = b.cfg.Now()
	b.opened.Add(1)
	b.resetWindowLocked()
}

func (b *Breaker) resetWindowLocked() {
	b.wlen, b.wpos, b.consecFails = 0, 0, 0
}

func (b *Breaker) pushLocked(fail bool) {
	b.window[b.wpos] = fail
	b.wpos = (b.wpos + 1) % len(b.window)
	if b.wlen < len(b.window) {
		b.wlen++
	}
}

// failureRatioLocked is the window failure ratio; it reads 0 until the
// window holds at least half its capacity, so a single early failure
// cannot flag a fresh breaker degraded.
func (b *Breaker) failureRatioLocked() float64 {
	if b.wlen < (len(b.window)+1)/2 {
		return 0
	}
	fails := 0
	for i := 0; i < b.wlen; i++ {
		if b.window[i] {
			fails++
		}
	}
	return float64(fails) / float64(b.wlen)
}

// State returns the current state, performing the open → half-open
// transition if the cooldown has elapsed (so health checks don't report
// a stale open).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		b.setStateLocked(BreakerHalfOpen)
		b.probesOut, b.probeOKs = 0, 0
	}
	return b.state
}

// StateAge reports how long the breaker has been in its current state,
// after applying the same lazy open → half-open transition State performs.
func (b *Breaker) StateAge() time.Duration {
	b.State()
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cfg.Now().Sub(b.changedAt)
}

// RegisterMetrics publishes the breaker under simsvc.breaker.*: state is
// a gauge using the BreakerState ordering (0 healthy … 3 open).
func (b *Breaker) RegisterMetrics(reg *telemetry.Registry) {
	reg.Gauge("simsvc.breaker.state", func() float64 { return float64(b.State()) })
	reg.Counter("simsvc.breaker.opened", b.opened.Load)
	reg.Counter("simsvc.breaker.shed", b.shed.Load)
}
