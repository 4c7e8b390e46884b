package serve

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"time"

	"maya"
)

// The virtual-time chaos run's fixed shape. Everything else — worker
// count, deadline (DefaultDeadline), breaker probe and every other
// control-plane setting — comes from the Config under test.
const (
	resilienceService  = 10 * time.Millisecond // modeled prediction service time
	resilienceDuration = 8 * time.Second       // arrivals stop here
	resilienceKeys     = 4                     // distinct prediction identities
	resilienceBucket   = 100 * time.Millisecond
	resilienceFailFast = time.Millisecond // how fast an injected fault answers
)

// ResilienceBucket is one goodput-timeline slot.
type ResilienceBucket struct {
	StartMS  int64 `json:"start_ms"`
	OK       int   `json:"ok"`
	Degraded int   `json:"degraded"`
	Shed     int   `json:"shed"`
	Rejected int   `json:"rejected"`
	Failed   int   `json:"failed"`
}

// ResilienceReport is the run's outcome: response classes, breaker
// activity, bounded-latency evidence and the goodput recovery time
// after the last outage window.
type ResilienceReport struct {
	Requests int `json:"requests"`
	OK       int `json:"ok"`       // fresh predictions served
	Degraded int `json:"degraded"` // stale results served during shed/open
	Shed     int `json:"shed"`     // shed verdicts refused (no stale cover)
	Rejected int `json:"rejected"` // breaker short-circuits (no stale cover)
	Failed   int `json:"failed"`   // dependency errors + deadline expiries

	BreakerTrips      int64 `json:"breaker_trips"`
	BreakerProbes     int64 `json:"breaker_probes"`
	BreakerRecoveries int64 `json:"breaker_recoveries"`

	// P99ResponseMS is the 99th percentile time-to-response over
	// accepted requests (fresh + degraded) — the bounded-latency
	// claim: shedding answers immediately, so nothing queues past its
	// deadline.
	P99ResponseMS float64 `json:"p99_response_ms"`
	// PreFaultGoodputRPS is the fresh-prediction rate before the
	// first fault window opens.
	PreFaultGoodputRPS float64 `json:"pre_fault_goodput_rps"`
	// RecoveryMS is how long after the last outage window closed the
	// fresh-prediction rate recovered to >= 90% of PreFaultGoodputRPS
	// (bucket granularity); -1 if it never did.
	RecoveryMS int64 `json:"recovery_ms"`

	Buckets []ResilienceBucket `json:"buckets"`
}

// completion is one in-flight modeled prediction finishing at a
// virtual time.
type completion struct {
	at      time.Duration
	seq     int
	key     string
	service time.Duration // actual busy time on the worker
	outcome breakerOutcome
}

// completionHeap orders completions by (time, sequence) — the same
// strict ordering discipline the simulation engine uses, so the walk
// is deterministic.
type completionHeap []completion

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h completionHeap) Swap(i, j int)     { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x any)       { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() any         { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h completionHeap) peek() *completion { return &h[0] }

// RunResilience executes one deterministic chaos run and reports
// goodput, shed/degraded/failed classes and recovery time: a
// virtual-time discrete-event walk of the server's own gate — built
// from cfg through the same defaults as New, on a virtual clock —
// against a modeled predictor dependency driven by cfg.Chaos. It is
// the emulate-the-node/model-the-boundary split: every admission,
// shed, breaker and degrade decision is the gate's; the walk models
// only what the gate does not decide — arrivals at 2x saturation, the
// pool's FIFO workers, the dependency's service time under the plan,
// and deadline expiry. Coalescing is not modeled (each arrival is its
// own call). The same config (including the plan seed) always
// produces a byte-identical report.
func RunResilience(cfg Config) (*ResilienceReport, error) {
	if cfg.Chaos == nil {
		return nil, errors.New("serve: resilience run needs a chaos plan")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	plan, deadline := cfg.Chaos, cfg.DefaultDeadline
	arrival := resilienceService / time.Duration(2*cfg.Workers)

	base := time.Unix(0, 0).UTC()
	var vnow time.Duration
	g := newGate(cfg, func() time.Time { return base.Add(vnow) }, &Metrics{})
	staleReport := &maya.Report{} // counted, never inspected

	workers := make([]time.Duration, cfg.Workers) // per-worker free-at
	var pending completionHeap
	var calls uint64

	rep := &ResilienceReport{}
	// Generous tail: completions can land past the last arrival.
	buckets := make([]ResilienceBucket, int((resilienceDuration+deadline)/resilienceBucket)+3)
	bucketOf := func(t time.Duration) *ResilienceBucket {
		return &buckets[min(int(t/resilienceBucket), len(buckets)-1)]
	}
	var accepted []time.Duration // time-to-response of OK + degraded

	// drain leaves the gate for every completion due at or before t,
	// in (time, seq) order, each at its own virtual time — as the live
	// server would.
	drain := func(t time.Duration) {
		for len(pending) > 0 && pending.peek().at <= t {
			c := heap.Pop(&pending).(completion)
			vnow = c.at
			g.leave(g.pbreaker, c.key, c.outcome, staleReport, c.service)
		}
		vnow = t
	}

	for seq := 0; ; seq++ {
		t := time.Duration(seq) * arrival
		if t >= resilienceDuration {
			break
		}
		drain(t)
		rep.Requests++
		key := fmt.Sprintf("k%d", seq%resilienceKeys)

		if res, ok := g.enter(g.pbreaker, key, deadline); !ok {
			b := bucketOf(t)
			switch {
			case res.Degraded:
				rep.Degraded++
				b.Degraded++
				accepted = append(accepted, 0)
			case res.shed != "":
				rep.Shed++
				b.Shed++
			default:
				rep.Rejected++
				b.Rejected++
			}
			continue
		}
		// The modeled dependency call on the earliest-free worker
		// (ties to the lowest index — deterministic).
		w := 0
		for i := 1; i < cfg.Workers; i++ {
			if workers[i] < workers[w] {
				w = i
			}
		}
		start := max(t, workers[w])
		calls++
		c := completion{seq: seq, key: key, service: resilienceService, outcome: breakerSuccess}
		if e := plan.effect(ChaosTargetPredict, start, calls); e != nil {
			if e.Kind == ChaosLatency {
				c.service += time.Duration(e.LatencyMS) * time.Millisecond
			} else {
				// Outage, error or panic: the dependency answers an
				// error (or a recovered panic) almost immediately.
				c.service, c.outcome = resilienceFailFast, breakerFailure
			}
		}
		c.at = start + c.service
		switch {
		case c.outcome == breakerFailure:
			rep.Failed++
			bucketOf(c.at).Failed++
		case c.at-t > deadline:
			// The request's context expires first: a 504, and the
			// worker is released at the cancellation point.
			c.at = t + deadline
			c.service = c.at - start
			c.outcome = breakerAborted
			rep.Failed++
			bucketOf(c.at).Failed++
		default:
			rep.OK++
			bucketOf(c.at).OK++
			accepted = append(accepted, c.at-t)
		}
		workers[w] = c.at
		heap.Push(&pending, c)
	}
	drain(resilienceDuration + deadline + time.Second) // flush everything

	rep.BreakerTrips = g.pbreaker.Trips()
	rep.BreakerProbes = g.pbreaker.Probes()
	rep.BreakerRecoveries = g.pbreaker.Recoveries()

	sort.Slice(accepted, func(i, j int) bool { return accepted[i] < accepted[j] })
	if n := len(accepted); n > 0 {
		i := int(0.99 * float64(n-1))
		rep.P99ResponseMS = float64(accepted[i].Nanoseconds()) / 1e6
	}

	// Pre-fault goodput and recovery, against the plan's fault span.
	firstFrom, lastUntil := int64(-1), int64(-1)
	for _, e := range plan.Events {
		if firstFrom < 0 || e.FromMS < firstFrom {
			firstFrom = e.FromMS
		}
		until := e.UntilMS
		if until == 0 {
			until = resilienceDuration.Milliseconds()
		}
		lastUntil = max(lastUntil, until)
	}
	trim := len(buckets)
	for trim > 0 && buckets[trim-1] == (ResilienceBucket{}) {
		trim--
	}
	bucketMS := resilienceBucket.Milliseconds()
	for i := range buckets {
		buckets[i].StartMS = int64(i) * bucketMS
	}
	rep.Buckets = buckets[:trim]
	if firstFrom > 0 {
		var pre, preBuckets int
		for _, b := range rep.Buckets {
			if b.StartMS+bucketMS <= firstFrom {
				pre += b.OK
				preBuckets++
			}
		}
		if preBuckets > 0 {
			rep.PreFaultGoodputRPS = float64(pre) / (float64(preBuckets) * resilienceBucket.Seconds())
		}
	}
	rep.RecoveryMS = -1
	if lastUntil >= 0 && rep.PreFaultGoodputRPS > 0 {
		want := 0.9 * rep.PreFaultGoodputRPS * resilienceBucket.Seconds()
		for _, b := range rep.Buckets {
			if b.StartMS >= lastUntil && float64(b.OK) >= want {
				rep.RecoveryMS = b.StartMS - lastUntil
				break
			}
		}
	}
	return rep, nil
}
