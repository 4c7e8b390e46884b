package serve

import (
	"math"
	"sync"
	"time"
)

// ShedVerdict is an admission decision from the overload shedder.
type ShedVerdict int

const (
	// ShedAdmit lets the request proceed to the worker pool.
	ShedAdmit ShedVerdict = iota
	// ShedDeadline rejects a request whose estimated queue wait
	// already exceeds its remaining deadline: it would expire in the
	// queue, so answering 429 now costs nothing and frees the queue
	// for requests that can still make it.
	ShedDeadline
	// ShedOverload rejects because queue delay has exceeded the
	// target for a sustained interval (the CoDel criterion): the
	// service is past saturation and admitting more only grows the
	// queue.
	ShedOverload
	// ShedQueue rejects an arrival that would put more predictions in
	// flight than the configured queue cap: the hard backstop behind
	// the delay-based rules, answered 503.
	ShedQueue
)

func (v ShedVerdict) String() string {
	switch v {
	case ShedAdmit:
		return "admit"
	case ShedDeadline:
		return "deadline"
	case ShedOverload:
		return "overload"
	case ShedQueue:
		return "queue"
	}
	return "invalid"
}

// Shedder is queue-delay-based admission control, CoDel-style: the
// controlled variable is *estimated queueing delay*, not queue
// length, so the policy adapts to how expensive predictions currently
// are. The estimate is depth beyond the worker count times the
// EWMA-smoothed service time divided by workers — how long a new
// arrival would wait for a pool slot.
//
// Two rules shed:
//
//   - Deadline-aware early rejection: if the estimate exceeds the
//     request's remaining deadline, the request is doomed — reject
//     immediately with 429/Retry-After instead of letting it expire
//     in the queue (a 504 after burning a slot).
//   - Sustained overload: when the estimate stays above the target
//     delay for a full interval, the shedder enters shedding state
//     and rejects every arrival whose wait estimate is still above
//     target, capping the standing queue at roughly target×capacity.
//     The state clears as soon as the estimate drops back under the
//     target — transient bursts shorter than the interval are
//     absorbed by the queue, exactly CoDel's good-queue/bad-queue
//     distinction.
//
// Ahead of both sits the queue cap (ShedQueue): a hard bound on
// predictions in flight, for when the estimate is still cold or
// service times collapse faster than the EWMA follows.
//
// The clock is injectable for deterministic tests and the
// virtual-time resilience harness.
type Shedder struct {
	target   time.Duration // queue delay to keep under
	interval time.Duration // how long delay must exceed target before shedding
	now      func() time.Time

	mu         sync.Mutex
	avgSvcNS   float64   // EWMA of observed service time
	aboveSince time.Time // zero when the estimate is under target
	shedding   bool
}

// ewmaAlpha weights new service-time observations; 1/8 follows the
// TCP RTT estimator.
const ewmaAlpha = 0.125

// NewShedder builds a shedder with the given target queue delay
// (minimum 1ms) and sustained-overload interval (minimum the target).
func NewShedder(target, interval time.Duration) *Shedder {
	if target < time.Millisecond {
		target = time.Millisecond
	}
	if interval < target {
		interval = target
	}
	return &Shedder{target: target, interval: interval, now: time.Now}
}

// Observe feeds one completed prediction's service time into the
// EWMA.
func (s *Shedder) Observe(d time.Duration) {
	if d < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.avgSvcNS == 0 {
		s.avgSvcNS = float64(d.Nanoseconds())
		return
	}
	s.avgSvcNS += ewmaAlpha * (float64(d.Nanoseconds()) - s.avgSvcNS)
}

// AvgService reports the smoothed service-time estimate (zero until
// the first observation).
func (s *Shedder) AvgService() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.avgSvcNS)
}

// EstimateWait estimates how long a new arrival would wait for a pool
// slot, given how many requests are currently in the system (admitted
// and unfinished) and the worker count: the depth beyond the workers,
// served at avg-service per worker. Zero until the first service-time
// observation.
func (s *Shedder) EstimateWait(inSystem, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	queued := inSystem - workers
	if queued <= 0 {
		return 0
	}
	s.mu.Lock()
	avg := s.avgSvcNS
	s.mu.Unlock()
	return time.Duration(avg * float64(queued) / float64(workers))
}

// Decide returns the admission verdict for a request with the given
// estimated queue wait and remaining deadline (0 = no deadline
// known). It also advances the overload state machine — Decide is the
// shedder's clock tick, called once per arriving prediction.
func (s *Shedder) Decide(est, remaining time.Duration) ShedVerdict {
	if remaining > 0 && est > remaining {
		return ShedDeadline
	}
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if est > s.target {
		if s.aboveSince.IsZero() {
			s.aboveSince = now
		}
		if !s.shedding && now.Sub(s.aboveSince) >= s.interval {
			s.shedding = true
		}
	} else {
		s.aboveSince = time.Time{}
		s.shedding = false
	}
	if s.shedding {
		return ShedOverload
	}
	return ShedAdmit
}

// Verdict is the whole shedding decision for an arrival that makes
// inSystem predictions in flight (itself included): ShedQueue past the
// queue cap, otherwise Decide on the estimated wait. It returns the
// estimate alongside, for the refusal's Retry-After.
func (s *Shedder) Verdict(inSystem, workers, queue int, remaining time.Duration) (ShedVerdict, time.Duration) {
	est := s.EstimateWait(inSystem, workers)
	if inSystem > queue {
		return ShedQueue, est
	}
	return s.Decide(est, remaining), est
}

// Shedding reports whether the shedder is currently in sustained
// overload state.
func (s *Shedder) Shedding() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shedding
}

// Target is the configured queue-delay target.
func (s *Shedder) Target() time.Duration { return s.target }

// retryAfterS converts a queue-wait estimate into a Retry-After hint
// in whole seconds (minimum 1).
func retryAfterS(est time.Duration) int {
	secs := int(math.Ceil(est.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}
