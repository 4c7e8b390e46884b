package serve

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"maya"
)

// gate is the one admission decision of the service: every capacity
// verdict and every completion effect of a dependency call goes
// through it. It holds the in-flight count (calls admitted and not yet
// finished, a batch of k predictions counting k), the Shedder, the
// per-dependency breakers and the degrade cache, all on one clock.
// The live server runs it on wall time; RunResilience runs the same
// gate on virtual time, so the chaos acceptance test exercises the
// server's own decisions rather than a copy of them.
type gate struct {
	workers int // pool width: the shedder's service rate
	queue   int // in-flight cap: beyond it an arrival is shed "queue"

	shed     *Shedder
	pbreaker *Breaker // guards Predict
	cbreaker *Breaker // guards Capture
	degrade  *degradeCache
	metrics  *Metrics

	inflight atomic.Int64
}

// newGate builds the gate from a defaulted Config, every component on
// the given clock, recording refusals into m.
func newGate(cfg Config, now func() time.Time, m *Metrics) *gate {
	g := &gate{
		workers:  cfg.Workers,
		queue:    cfg.Queue,
		shed:     NewShedder(cfg.ShedTarget, cfg.ShedInterval),
		pbreaker: NewBreaker("predict", cfg.BreakerThreshold, cfg.BreakerProbe),
		cbreaker: NewBreaker("capture", cfg.BreakerThreshold, cfg.BreakerProbe),
		degrade:  newDegradeCache(cfg.DegradeCacheSize),
		metrics:  m,
	}
	g.shed.now, g.pbreaker.now, g.cbreaker.now, g.degrade.now = now, now, now, now
	return g
}

// enter counts one arriving call against the in-flight total, then
// decides in order: queue cap, deadline and overload (the shedder's
// verdict), then br's circuit. ok means admitted: the caller must
// make the call and then leave exactly once. Otherwise nothing is
// held and res is the complete answer — the stale report for key
// marked degraded when one is cached (key "" never degrades),
// else the refusal with its status, shed verdict and Retry-After.
func (g *gate) enter(br *Breaker, key string, remaining time.Duration) (res PredictResult, ok bool) {
	depth := int(g.inflight.Add(1))
	v, est := g.shed.Verdict(depth, g.workers, g.queue, remaining)
	if v != ShedAdmit {
		g.inflight.Add(-1)
		g.metrics.Shed.Add(1)
		g.metrics.QueueWaitAtReject.observe(float64(est.Nanoseconds()) / 1e6)
		res = PredictResult{status: http.StatusTooManyRequests, shed: v.String(), retryAfterS: retryAfterS(est)}
		switch v {
		case ShedQueue:
			res.status = http.StatusServiceUnavailable
			res.Error = fmt.Sprintf("admission queue full: %d predictions in flight", g.queue)
		case ShedDeadline:
			res.Error = fmt.Sprintf("estimated queue wait %v exceeds remaining deadline %v",
				est.Round(time.Millisecond), remaining.Round(time.Millisecond))
		default:
			res.Error = fmt.Sprintf("overloaded: estimated queue wait %v above target %v",
				est.Round(time.Millisecond), g.shed.Target())
		}
		return g.fallback(key, res), false
	}
	if !br.Allow() {
		g.inflight.Add(-1)
		return g.fallback(key, PredictResult{
			Error:  br.Name() + " circuit open",
			status: http.StatusServiceUnavailable,
		}), false
	}
	return PredictResult{}, true
}

// fallback turns a refusal into a degraded 200 carrying the stale
// report for key when one is cached; the shed verdict, if any, stays
// on the answer.
func (g *gate) fallback(key string, refusal PredictResult) PredictResult {
	if key == "" {
		return refusal
	}
	rep, age, ok := g.degrade.get(key)
	if !ok {
		return refusal
	}
	g.metrics.Degraded.Add(1)
	return PredictResult{
		Report:   rep,
		Degraded: true,
		StaleMS:  float64(age.Nanoseconds()) / 1e6,
		status:   http.StatusOK,
		shed:     refusal.shed,
	}
}

// leave finishes an admitted call: it releases the in-flight count,
// reports the outcome to br, refreshes the degrade cache with a fresh
// report for key, and feeds svc — the executing leader's measured
// service time; zero for coalescing followers and calls that never
// ran — into the shedder's estimate.
func (g *gate) leave(br *Breaker, key string, o breakerOutcome, rep *maya.Report, svc time.Duration) {
	g.inflight.Add(-1)
	if svc > 0 {
		g.shed.Observe(svc)
	}
	br.Observe(o)
	if o == breakerSuccess && key != "" {
		g.degrade.put(key, rep)
	}
}

// depth reports the calls currently admitted and unfinished.
func (g *gate) depth() int { return int(g.inflight.Load()) }
