// Package retry is the shared failure-handling vocabulary of the service
// stack: error classification (transient errors are worth retrying,
// permanent ones are not), exponential backoff with full jitter, and a
// budgeted retry loop that honors server Retry-After hints. The simsvc
// scheduler uses the classification and the backoff to decide whether and
// when a failed job attempt is requeued, and its HTTP layer to pick the
// status of a refused submission. One HTTP client runs the full loop and
// classifies every response with ReadResponse: simsvc.Client, the job-API
// client behind cmd/mallacc-ctl, cmd/mallacc-sim -serve, the chaos
// harness and the webserver example.
package retry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Classifier is the marker interface the classification walks to. Any
// error in a chain may implement it; the outermost marker wins.
type Classifier interface {
	Transient() bool
}

// marked wraps an error with an explicit class.
type marked struct {
	err       error
	transient bool
}

func (m *marked) Error() string {
	if m.transient {
		return "transient: " + m.err.Error()
	}
	return "permanent: " + m.err.Error()
}

func (m *marked) Unwrap() error   { return m.err }
func (m *marked) Transient() bool { return m.transient }

// Transient marks err as worth retrying. A nil err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &marked{err: err, transient: true}
}

// Permanent marks err as not worth retrying. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &marked{err: err, transient: false}
}

// IsTransient reports whether err should be retried. Explicit markers
// (anything implementing Classifier) win; otherwise net errors are
// treated as transient and everything else — spec errors, marshaling
// bugs, deterministic failures — as permanent, because retrying a pure
// function of its inputs cannot change the answer.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var c Classifier
	if errors.As(err, &c) {
		return c.Transient()
	}
	// Context expiry is handled by the caller's own deadline logic, never
	// by blind retry. Checked before net.Error: DeadlineExceeded happens
	// to satisfy net.Error's method set.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return false
}

// TransientHTTPStatus reports whether an HTTP status code signals a
// retryable condition: request timeout, throttling, and server-side
// errors. 501 (Not Implemented) is the one 5xx that never heals.
func TransientHTTPStatus(code int) bool {
	switch code {
	case 408, 429:
		return true
	case 501:
		return false
	}
	return code >= 500 && code <= 599
}

// ReadResponse reads and closes resp's body (at most limit bytes) and
// classifies the outcome for the Do loop. A failed read is transient. A
// status of 300 or more becomes an error naming the status and the
// server's {"error": ...} message: permanent unless TransientHTTPStatus
// says otherwise, and an *AfterError when the server sent a Retry-After
// delay in seconds. Every retrying client decodes its responses through
// here, so all of them honor the same hints.
func ReadResponse(resp *http.Response, limit int64) ([]byte, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return nil, Transient(err)
	}
	if resp.StatusCode < 300 {
		return body, nil
	}
	msg := resp.Status
	var doc struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &doc) == nil && doc.Error != "" {
		msg += ": " + doc.Error
	}
	serr := errors.New(msg)
	if !TransientHTTPStatus(resp.StatusCode) {
		return nil, Permanent(serr)
	}
	if secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); err == nil && secs > 0 {
		return nil, &AfterError{Err: serr, After: time.Duration(secs) * time.Second}
	}
	return nil, Transient(serr)
}

// AfterError carries a server's Retry-After hint alongside the error. The
// Do loop waits at least After before the next attempt. It is always
// transient — a server that says "come back later" is inviting a retry.
type AfterError struct {
	Err   error
	After time.Duration
}

func (e *AfterError) Error() string   { return e.Err.Error() }
func (e *AfterError) Unwrap() error   { return e.Err }
func (e *AfterError) Transient() bool { return true }

// Backoff computes exponential delays with full jitter: attempt n draws
// uniformly from [0, min(Max, Base·2ⁿ)). Full jitter decorrelates
// retrying clients, so a failure burst does not re-synchronize into a
// thundering herd. The zero delay is legal and intentional.
type Backoff struct {
	// Base is the attempt-0 ceiling (default 50ms).
	Base time.Duration
	// Max caps the ceiling growth (default 5s).
	Max time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// NewBackoff builds a seeded backoff. The seed makes jitter sequences
// reproducible in tests and chaos runs; distinct clients should use
// distinct seeds.
func NewBackoff(base, max time.Duration, seed uint64) *Backoff {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	return &Backoff{Base: base, Max: max, rng: rand.New(rand.NewSource(int64(seed)))}
}

// Ceiling returns the un-jittered upper bound for attempt (0-based).
func (b *Backoff) Ceiling(attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	c := b.Base
	for i := 0; i < attempt; i++ {
		c *= 2
		if c >= b.Max || c <= 0 { // overflow guard
			return b.Max
		}
	}
	if c > b.Max {
		return b.Max
	}
	return c
}

// Delay draws the jittered delay for attempt (0-based): uniform in
// [0, Ceiling(attempt)).
func (b *Backoff) Delay(attempt int) time.Duration {
	c := b.Ceiling(attempt)
	if c <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(1))
	}
	return time.Duration(b.rng.Int63n(int64(c)))
}

// Policy is a bounded retry loop: at most MaxAttempts tries, jittered
// waits between them, and a hard wall-clock Budget across the whole loop
// (0 = unbounded). Op errors classified permanent abort immediately.
type Policy struct {
	// MaxAttempts is the total number of tries, including the first
	// (default 5).
	MaxAttempts int
	// Backoff supplies the inter-attempt delays (default 50ms base / 5s
	// max, seed 1).
	Backoff *Backoff
	// Budget caps the loop's total elapsed time including waits; once the
	// next wait would cross it, the last error is returned (0 = no cap).
	Budget time.Duration
	// now is the test clock (defaults to time.Now).
	now func() time.Time
}

// ErrBudgetExhausted wraps the last attempt error when the retry budget
// or attempt cap runs out.
var ErrBudgetExhausted = errors.New("retry budget exhausted")

// Do runs op until it succeeds, fails permanently, exhausts the policy,
// or ctx dies. op receives the 0-based attempt number.
func (p Policy) Do(ctx context.Context, op func(attempt int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	attempts := p.MaxAttempts
	if attempts <= 0 {
		attempts = 5
	}
	backoff := p.Backoff
	if backoff == nil {
		backoff = NewBackoff(0, 0, 1)
	}
	now := p.now
	if now == nil {
		now = time.Now
	}
	start := now()

	var last error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		last = op(attempt)
		if last == nil {
			return nil
		}
		if !IsTransient(last) {
			return last
		}
		if attempt == attempts-1 {
			break
		}
		wait := backoff.Delay(attempt)
		var ae *AfterError
		if errors.As(last, &ae) && ae.After > wait {
			wait = ae.After
		}
		if p.Budget > 0 && now().Sub(start)+wait > p.Budget {
			return fmt.Errorf("%w after %d attempts: %v", ErrBudgetExhausted, attempt+1, last)
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return fmt.Errorf("%w after %d attempts: %v", ErrBudgetExhausted, attempts, last)
}
