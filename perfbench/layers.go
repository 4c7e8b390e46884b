package main

import (
	"context"
	"errors"
	"sync"
	"time"

	"maya"
	"maya/internal/core"
	"maya/internal/estimator"
	"maya/internal/silicon"
	"maya/internal/sim"
	"maya/internal/trace"
)

// layers composes the public calls the facade makes for one
// prediction — capture, then plan build and fill or oracle
// annotation, then simulation — with a span around each, and counts
// the work each layer did. Safe for concurrent use.
type layers struct {
	tr *tracer

	mu             sync.Mutex
	captureOps     int64 // trace ops captured
	rankEmulations int64
	totalWorkers   int64
	simRuns        int64
	simTruncated   int64
	simOps         int64 // trace ops simulated

	// plans, when non-nil, keeps each capture's estimate plan, as the
	// facade attaches plans to captures it reuses. Runs whose captures
	// are each used once leave it nil.
	plans map[*core.Capture]*estimator.EstimatePlan
}

func newLayers() *layers { return &layers{tr: newTracer()} }

// errNotIndexable reports a job the pooled annotation overlay cannot
// address; the facade would fall back to a deep copy, which the
// decomposition does not reproduce.
var errNotIndexable = errors.New("captured job is not positionally indexable")

func jobOps(job *trace.Job) int64 {
	var n int64
	for _, w := range job.Workers {
		n += int64(len(w.Ops))
	}
	return n
}

// capture runs Pipeline.Capture under a "capture" span.
func (l *layers) capture(ctx context.Context, op, parent int, pipe *core.Pipeline, w maya.Workload) (*core.Capture, error) {
	id := l.tr.begin("capture", op, parent)
	c, err := pipe.Capture(ctx, w)
	l.tr.end(id)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rankEmulations += int64(c.RankEmulations)
	l.totalWorkers += int64(c.TotalWorkers)
	if c.Job != nil {
		l.captureOps += jobOps(c.Job)
	}
	return c, nil
}

// learned builds the capture's estimate plan, fills a pooled overlay
// from it and simulates — the facade's learned-annotation path.
func (l *layers) learned(ctx context.Context, op, parent int, suite *estimator.Suite, c *core.Capture) (*sim.Report, error) {
	l.mu.Lock()
	plan := l.plans[c]
	l.mu.Unlock()
	if plan == nil {
		id := l.tr.begin("estimate.plan", op, parent)
		var err error
		plan, err = suite.BuildEstimatePlan(ctx, c.Job, c.Comms, c.CommSizes)
		l.tr.end(id)
		if err != nil {
			return nil, err
		}
		if l.plans != nil {
			l.mu.Lock()
			l.plans[c] = plan
			l.mu.Unlock()
		}
	}
	id := l.tr.begin("estimate.fill", op, parent)
	ann := trace.AcquireAnnotations(c.Job)
	filled := ann != nil && plan.Fill(ann)
	l.tr.end(id)
	if ann == nil {
		return nil, errNotIndexable
	}
	defer ann.Release()
	if !filled {
		return nil, errors.New("estimate plan does not match its capture's layout")
	}
	return l.simulate(ctx, op, parent, c, ann)
}

// oracle annotates a pooled overlay with ground-truth kernel times
// and simulates — the facade's oracle-annotation path.
func (l *layers) oracle(ctx context.Context, op, parent int, o *silicon.Oracle, c *core.Capture) (*sim.Report, error) {
	id := l.tr.begin("oracle.annotate", op, parent)
	ann := trace.AcquireAnnotations(c.Job)
	var err error
	if ann != nil {
		err = o.AnnotateInto(ctx, c.Job, c.Comms, c.CommSizes, ann)
	}
	l.tr.end(id)
	if ann == nil {
		return nil, errNotIndexable
	}
	defer ann.Release()
	if err != nil {
		return nil, err
	}
	return l.simulate(ctx, op, parent, c, ann)
}

// measure replays the capture on the synthetic silicon — the
// facade's physical-replay path. The replay's own simulation is part
// of this span, not of the "sim" layer.
func (l *layers) measure(ctx context.Context, op, parent int, o *silicon.Oracle, c *core.Capture, seed uint64) (*sim.Report, error) {
	id := l.tr.begin("oracle.measure", op, parent)
	defer l.tr.end(id)
	return silicon.MeasureActual(ctx, c.Job, o, c.Comms, c.CommSizes, c.Participants, seed, nil)
}

// simulate runs the pooled engine under a "sim" span.
func (l *layers) simulate(ctx context.Context, op, parent int, c *core.Capture, ann *trace.Annotations) (*sim.Report, error) {
	id := l.tr.begin("sim", op, parent)
	sr, err := sim.RunPooled(ctx, c.Job, sim.Options{Participants: c.Participants, Annotations: ann})
	l.tr.end(id)
	if err != nil {
		return nil, err
	}
	l.countSim(c, sr.Truncated)
	return sr, nil
}

func (l *layers) countSim(c *core.Capture, truncated bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.simRuns++
	l.simOps += jobOps(c.Job)
	if truncated {
		l.simTruncated++
	}
}

// metrics fills the capture, estimate, oracle and sim metrics; busy
// times are per end-to-end operation, so they split its time.
func (l *layers) metrics(m map[string]float64, ops int) {
	by := l.tr.byName()
	get := func(name string) *layerStats {
		if s := by[name]; s != nil {
			return s
		}
		return &layerStats{}
	}
	perOp := func(name string) float64 { return ratio(ms(get(name).busy), float64(ops)) }
	capt := get("capture")
	m["capture.calls"] = ratio(float64(capt.count), float64(ops))
	m["capture.busy_ms"] = perOp("capture")
	m["capture.p50_ms"] = quantile(capt.durs, 0.5)
	m["capture.ops_per_ms"] = ratio(float64(l.captureOps), ms(capt.busy))
	m["capture.emulations_per_rank"] = ratio(float64(l.rankEmulations), float64(l.totalWorkers))
	m["estimate.plan_busy_ms"] = perOp("estimate.plan")
	m["estimate.fill_busy_ms"] = perOp("estimate.fill")
	m["estimate.plans"] = ratio(float64(get("estimate.plan").count), float64(ops))
	m["oracle.annotate_busy_ms"] = perOp("oracle.annotate")
	m["oracle.measure_busy_ms"] = perOp("oracle.measure")
	m["sim.runs"] = ratio(float64(l.simRuns), float64(ops))
	m["sim.busy_ms"] = perOp("sim")
	m["sim.ns_per_op"] = ratio(float64(get("sim").busy.Nanoseconds()), float64(l.simOps))
	m["sim.truncated_share"] = ratio(float64(l.simTruncated), float64(l.simRuns))
}

// overheadPct compares the traced decomposition's time per operation
// with the untraced facade's on the same inputs.
func overheadPct(traced, facade time.Duration) float64 {
	return 100 * (ratio(float64(traced), float64(facade)) - 1)
}
