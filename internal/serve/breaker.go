package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed passes every call through; consecutive failures
	// are counted toward the trip threshold.
	BreakerClosed BreakerState = iota
	// BreakerOpen short-circuits every call until the probe interval
	// elapses.
	BreakerOpen
	// BreakerHalfOpen admits exactly one probe call; its outcome
	// decides between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "invalid"
}

// Call outcomes reported to a breaker. Context cancellation is
// deliberately "aborted" — a caller giving up on its own deadline
// says nothing about the dependency's health, so it neither trips nor
// heals the breaker (but it does release a half-open probe so the
// next caller can try again).
type breakerOutcome int

const (
	breakerSuccess breakerOutcome = iota
	breakerFailure
	breakerAborted
)

// Breaker is a per-dependency circuit breaker with the classic
// closed → open → half-open cycle. Closed, it counts consecutive
// failures and trips at the threshold. Open, it rejects calls without
// touching the dependency until probeAfter has elapsed, then flips to
// half-open and admits a single probe; the probe's success closes the
// circuit, its failure re-opens it for another probe interval.
//
// The service layer pairs a breaker rejection with the stale-result
// cache: an open breaker degrades to previously computed predictions
// instead of queueing doomed work behind a broken dependency.
//
// The clock is injectable so state transitions are deterministic
// under test and in the virtual-time resilience harness.
type Breaker struct {
	name       string
	threshold  int
	probeAfter time.Duration
	now        func() time.Time

	mu       sync.Mutex
	state    BreakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the circuit last opened
	probing  bool      // a half-open probe is in flight

	trips      atomic.Int64
	probes     atomic.Int64
	recoveries atomic.Int64
	rejected   atomic.Int64
}

// NewBreaker builds a closed breaker tripping after threshold
// consecutive failures (minimum 1) and probing after probeAfter
// (minimum 1ms).
func NewBreaker(name string, threshold int, probeAfter time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if probeAfter < time.Millisecond {
		probeAfter = time.Millisecond
	}
	return &Breaker{name: name, threshold: threshold, probeAfter: probeAfter, now: time.Now}
}

// Allow reports whether a call to the dependency may proceed. A true
// return obligates the caller to Observe the call's outcome; a false
// return means the circuit is open (or a probe is already in flight)
// and the caller should degrade or reject without touching the
// dependency.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) >= b.probeAfter {
			b.state = BreakerHalfOpen
			b.probing = true
			b.probes.Add(1)
			return true
		}
	case BreakerHalfOpen:
		if !b.probing {
			b.probing = true
			b.probes.Add(1)
			return true
		}
	}
	b.rejected.Add(1)
	return false
}

// Observe reports an allowed call's outcome. Success closes a
// half-open circuit (and resets the failure streak); failure trips a
// closed circuit at the threshold and immediately re-opens a
// half-open one; aborted only releases the probe slot.
func (b *Breaker) Observe(o breakerOutcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch o {
	case breakerSuccess:
		if b.state == BreakerHalfOpen {
			b.recoveries.Add(1)
		}
		b.state = BreakerClosed
		b.fails = 0
		b.probing = false
	case breakerFailure:
		switch b.state {
		case BreakerClosed:
			b.fails++
			if b.fails >= b.threshold {
				b.tripLocked()
			}
		case BreakerHalfOpen:
			b.tripLocked()
		case BreakerOpen:
			// A straggling call from before the trip: the circuit is
			// already open, nothing more to record.
		}
	case breakerAborted:
		b.probing = false
	}
}

// tripLocked opens the circuit. Callers hold b.mu.
func (b *Breaker) tripLocked() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.fails = 0
	b.probing = false
	b.trips.Add(1)
}

// State reports the breaker's current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Name identifies the guarded dependency.
func (b *Breaker) Name() string { return b.name }

// Trips counts closed/half-open → open transitions.
func (b *Breaker) Trips() int64 { return b.trips.Load() }

// Probes counts half-open probe calls admitted.
func (b *Breaker) Probes() int64 { return b.probes.Load() }

// Recoveries counts half-open → closed transitions.
func (b *Breaker) Recoveries() int64 { return b.recoveries.Load() }

// Rejected counts calls short-circuited without touching the
// dependency.
func (b *Breaker) Rejected() int64 { return b.rejected.Load() }

// outcomeOf classifies a prediction error for the breaker: nil is
// success, the caller's own cancellation is aborted, everything else
// — dependency errors, recovered panics, injected chaos — is failure.
func outcomeOf(err error) breakerOutcome {
	switch {
	case err == nil:
		return breakerSuccess
	case isCtxErr(err):
		return breakerAborted
	default:
		return breakerFailure
	}
}
