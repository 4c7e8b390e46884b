package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"maya"
	"maya/internal/core"
	"maya/internal/estimator"
	"maya/internal/framework"
	"maya/internal/search"
)

// The search workload is the recipe-search user: a closed loop, each
// operation one FindRecipe (CMA-ES, budget 128, no early stop, one
// worker) on the two fig16 setups, with the capture cache filled
// during set-up. Capture does almost nothing; the time goes to
// the trial loop, the verdict fast path, the domination abort,
// SimulateScratch and plan Fill.

const (
	// minSearchOps is the fewest searches a run holds, so p90 has ten
	// samples beyond it.
	minSearchOps = 100
	// searchCacheSize is maya-search's default capture-cache size; the
	// search set's captures fit in it.
	searchCacheSize = 256
	searchBudget    = 128
	tagSearch       = 0x73656172
)

// searchCase is one search of the set a run cycles through.
type searchCase struct {
	setup *setup
	seed  uint64
}

func (c searchCase) String() string { return fmt.Sprintf("%s/seed%d", c.setup.name, c.seed) }

// searchSet is fixed rather than drawn from the run's seed. Single
// searches differ up to fivefold in cost, and the captures a set must
// keep warm cost 5–8 MB each, so a set small enough to hold in memory
// cannot average that out: drawn sets spread p90 by about 40% across
// seeds. A fixed set measures the same searches every run; the seed
// orders each pass over it. These three touch about 150 captures and
// differ enough in cost that p50 and p90 each fall inside one
// search's timings.
func searchSet() []searchCase {
	v100 := &setup{name: "gpt3-2.7b/8xV100", cluster: maya.DGXV100(1), model: maya.GPT3_2_7B(), batch: 64}
	h100 := &setup{name: "gpt3-18.4b/64xH100", cluster: maya.DGXH100(8), model: maya.GPT3_18_4B(), batch: 128}
	return []searchCase{{v100, 101}, {v100, 115}, {h100, 103}}
}

// searchOptions runs each search on one worker. A search's outcome
// is the same for any Parallel; one worker keeps the process to one
// busy thread, so its CPU time is the search's work and not the
// scheduler's hand-offs between workers.
func searchOptions(c searchCase) maya.SearchOptions {
	return maya.SearchOptions{
		Algorithm: "cma", Budget: searchBudget, Seed: c.seed,
		EarlyStopWindow: -1, Parallel: 1,
	}
}

// outcomeKey renders what must not change between two runs of one
// search: the best recipe and the trial accounting.
func outcomeKey(o *maya.SearchOutcome) string {
	if o.Best == nil {
		return "no best recipe"
	}
	b := o.Best
	return fmt.Sprintf("best=%s iter_ns=%d mfu=%016x oom=%t stats=%+v",
		b.Knobs, b.IterTime.Nanoseconds(), math.Float64bits(b.MFU), b.OOM, o.Stats)
}

// searchEnv is one set-up: predictors sharing a capture cache that
// one pass over the set has filled, and each search's first outcome.
type searchEnv struct {
	preds   map[*setup]*maya.Predictor
	cache   *maya.CaptureCache
	ref     []*maya.SearchOutcome
	trainMS float64
}

func newSearchEnv(ctx context.Context, set []searchCase) (*searchEnv, error) {
	maya.DefaultEstimatorCache().Purge()
	e := &searchEnv{preds: map[*setup]*maya.Predictor{}, cache: maya.NewCaptureCache(searchCacheSize)}
	t0 := time.Now()
	for _, c := range set {
		if e.preds[c.setup] != nil {
			continue
		}
		p, err := maya.NewPredictor(c.setup.cluster, maya.ProfileLLM, maya.WithCaptureCache(e.cache))
		if err != nil {
			return nil, err
		}
		if err := p.Warm(ctx); err != nil {
			return nil, err
		}
		e.preds[c.setup] = p
	}
	e.trainMS = ms(time.Since(t0))
	for _, c := range set {
		o, err := e.find(ctx, c)
		if err != nil {
			return nil, err
		}
		e.ref = append(e.ref, o)
	}
	return e, nil
}

func (e *searchEnv) find(ctx context.Context, c searchCase) (*maya.SearchOutcome, error) {
	return e.preds[c.setup].FindRecipe(ctx, maya.SearchProblem{Model: c.setup.model, GlobalBatch: c.setup.batch}, searchOptions(c))
}

// searchOrder is the run's sequence of set indices: seeded passes
// over the set, as many as the run needs.
type searchOrder struct {
	rng  *rand.Rand
	n    int
	pass []int
}

func (s *searchOrder) next() int {
	if len(s.pass) == 0 {
		s.pass = s.rng.Perm(s.n)
	}
	i := s.pass[0]
	s.pass = s.pass[1:]
	return i
}

func runSearch(cfg runConfig) (*outcome, error) {
	if cfg.traced {
		return runSearchTraced(cfg)
	}
	ctx := context.Background()
	set := searchSet()
	// Tearing an env down drops its captures, so the next set-up does
	// not grow the heap on top of them.
	env, setupS, err := repeatSetup(func() (*searchEnv, error) { return newSearchEnv(ctx, set) }, func(e *searchEnv) { *e = searchEnv{} })
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	order := &searchOrder{rng: newRNG(cfg.seed, tagSearch), n: len(set)}
	var cpus []float64
	host := newHostRef()
	runtime.GC()
	deadline := time.Now().Add(cfg.seconds)
	for out.attempted < minSearchOps || time.Now().Before(deadline) {
		i := order.next()
		out.attempted++
		c0 := cpuTime()
		o, err := env.find(ctx, set[i])
		cpus = append(cpus, ms(cpuTime()-c0))
		host.sample()
		if err != nil {
			out.failed++
			out.problemf("%s: %v", set[i], err)
			continue
		}
		if got, want := outcomeKey(o), outcomeKey(env.ref[i]); got != want {
			out.problemf("%s: outcome %s differs from the same search's first outcome %s", set[i], got, want)
		}
	}

	var errs, mfus []float64
	var dg digest
	for i, c := range set {
		o := env.ref[i]
		dg.add("%s %s", c, outcomeKey(o))
		if o.Best == nil || o.Best.OOM || o.Best.IterTime <= 0 {
			out.problemf("%s: no runnable best recipe (%s)", c, outcomeKey(o))
			continue
		}
		w, err := maya.NewMegatron(o.Best.Config)
		if err != nil {
			return nil, err
		}
		act, err := env.preds[c.setup].MeasureActual(ctx, w)
		if err != nil {
			return nil, fmt.Errorf("measuring %s best recipe: %w", c, err)
		}
		errs = append(errs, 100*math.Abs(float64(o.Best.IterTime-act.IterTime))/float64(act.IterTime))
		mfus = append(mfus, o.Best.MFU)
	}
	out.digest = dg.sum()
	out.metrics["setup_s"] = setupS
	out.metrics["cpu_p50_ref"] = host.rel(quantile(cpus, 0.5))
	out.metrics["cpu_tail_ref"] = host.rel(quantile(cpus, 0.9))
	out.metrics["heap_live_mb"] = heapLiveMB()
	runtime.KeepAlive(env)
	out.metrics["error_pct"] = mean(errs)
	out.metrics["best_mfu"] = mean(mfus)
	out.metrics["good_share"] = ratio(float64(out.attempted-out.failed), float64(out.attempted))
	return out, nil
}

// runSearchTraced times each search of the set through the facade,
// then drives the same searches through search.RunWorkers
// with an evaluator composed from CaptureLRU.Get, Pipeline.Capture
// and Pipeline.SimulateScratch under spans. The facade's captures are
// released before the traced cache fills, so only one set of
// captures is held at a time.
func runSearchTraced(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	set := searchSet()
	env, err := newSearchEnv(ctx, set)
	if err != nil {
		return nil, err
	}
	trainMS := env.trainMS
	// The facade's time per search is the median of three warm runs.
	facadeTime := make([]time.Duration, len(set))
	for i, c := range set {
		var runs []float64
		for k := 0; k < 3; k++ {
			t0 := time.Now()
			if _, err := env.find(ctx, c); err != nil {
				return nil, err
			}
			runs = append(runs, float64(time.Since(t0)))
		}
		facadeTime[i] = time.Duration(quantile(runs, 0.5))
	}
	ref := env.ref
	env = nil
	runtime.GC()

	out := &outcome{metrics: map[string]float64{}}
	l := newLayers()
	out.spans = l.tr
	lrus := map[*setup]*core.CaptureLRU{}
	for _, c := range set {
		if lrus[c.setup] == nil {
			lrus[c.setup] = core.NewCaptureLRU(searchCacheSize)
		}
	}
	st := &searchTally{}
	// The first pass fills the traced path's capture cache, as the
	// facade's set-up pass did; only later passes are measured.
	for i, c := range set {
		o, err := tracedSearch(ctx, l, -1, c, lrus[c.setup], nil)
		if err != nil {
			return nil, err
		}
		if got, want := outcomeKey(o), outcomeKey(ref[i]); got != want {
			out.problemf("%s: traced outcome %s differs from facade %s", c, got, want)
		}
	}
	l = newLayers()
	out.spans = l.tr
	cacheBefore := map[*setup]core.CaptureCacheStats{}
	for s, lru := range lrus {
		cacheBefore[s] = lru.Stats()
	}

	order := &searchOrder{rng: newRNG(cfg.seed, tagSearch), n: len(set)}
	var tracedTime, baseTime time.Duration
	runtime.GC()
	before := readRuntime()
	deadline := time.Now().Add(cfg.seconds)
	for out.attempted < minSearchOps || time.Now().Before(deadline) {
		i := order.next()
		op := out.attempted
		out.attempted++
		t0 := time.Now()
		o, err := tracedSearch(ctx, l, op, set[i], lrus[set[i].setup], st)
		tracedTime += time.Since(t0)
		baseTime += facadeTime[i]
		if err != nil {
			out.failed++
			out.problemf("%s: %v", set[i], err)
			continue
		}
		if got, want := outcomeKey(o), outcomeKey(ref[i]); got != want {
			out.problemf("%s: traced outcome %s differs from facade %s", set[i], got, want)
		}
	}
	after := readRuntime()

	var dg digest
	for i, c := range set {
		dg.add("%s %s", c, outcomeKey(ref[i]))
	}
	out.digest = dg.sum()

	m := out.metrics
	ops := float64(out.attempted)
	l.metrics(m, out.attempted)
	var hits, misses, evictions int64
	for s, lru := range lrus {
		now := lru.Stats()
		hits += now.Hits - cacheBefore[s].Hits
		misses += now.Misses - cacheBefore[s].Misses
		evictions += now.Evictions - cacheBefore[s].Evictions
	}
	m["capture_cache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["capture_cache.evictions"] = ratio(float64(evictions), ops)
	m["suite.train_ms"] = trainMS
	m["search.trials"] = ratio(float64(st.trials), ops)
	m["search.executed"] = ratio(float64(st.stats.Executed), ops)
	m["search.verdict"] = ratio(float64(st.stats.Verdict), ops)
	m["search.dominated"] = ratio(float64(st.stats.Dominated), ops)
	m["search.cached"] = ratio(float64(st.stats.Cached), ops)
	m["search.invalid"] = ratio(float64(st.stats.Invalid), ops)
	m["search.completed_share"] = ratio(float64(st.stats.Executed), float64(st.stats.Executed+st.stats.Dominated))
	by := l.tr.byName()
	if e := by["search.eval"]; e != nil {
		m["search.eval_busy_ms"] = ms(e.busy) / ops
	}
	m["search.loop_self_ms"] = ms(l.tr.selfTimes()["search"]) / ops
	m["trace.overhead_pct"] = overheadPct(tracedTime, baseTime)
	runtimeMetrics(m, before, after, out.attempted)
	out.problems = append(out.problems, l.tr.check(map[string]bool{"search": true})...)
	return out, nil
}

// searchTally sums the trial accounting of the measured searches.
type searchTally struct {
	trials int
	stats  search.Stats
}

func (t *searchTally) add(o *search.Outcome) {
	t.trials += len(o.History)
	t.stats.Executed += o.Stats.Executed
	t.stats.Cached += o.Stats.Cached
	t.stats.Invalid += o.Stats.Invalid
	t.stats.Verdict += o.Stats.Verdict
	t.stats.Dominated += o.Stats.Dominated
}

// tracedSearch is FindRecipe composed from its layers: the same
// evaluator the facade builds, with a span around each trial and
// each call it makes into the capture cache, capture and simulation.
func tracedSearch(ctx context.Context, l *layers, op int, c searchCase, lru *core.CaptureLRU, st *searchTally) (*search.Outcome, error) {
	root := l.tr.begin("search", op, 0)
	defer l.tr.end(root)
	cl := c.setup.cluster
	suite, _, err := core.DefaultSuiteCache().SuiteFor(ctx, cl, core.DefaultOracle(cl), estimator.ProfileLLM)
	if err != nil {
		return nil, err
	}
	pipe := &core.Pipeline{Cluster: cl, Suite: suite, Opts: core.Options{SelectiveLaunch: true}}
	flops := c.setup.flops()
	opts := searchOptions(c)
	scratches := make([]*core.SimScratch, opts.Parallel)
	defer func() {
		for _, s := range scratches {
			if s != nil {
				s.Release()
			}
		}
	}()
	factory := func(worker int) search.Evaluator {
		scratch := core.AcquireSimScratch()
		scratches[worker] = scratch
		return func(ctx context.Context, cfg framework.MegatronConfig, bound time.Duration) (search.EvalResult, error) {
			eval := l.tr.begin("search.eval", op, root)
			defer l.tr.end(eval)
			w, err := framework.NewMegatron(cfg)
			if err != nil {
				return search.EvalResult{}, err
			}
			get := l.tr.begin("capture_cache.get", op, eval)
			capt, _, err := lru.Get(ctx, w.Fingerprint(), func() (*core.Capture, error) {
				return l.capture(ctx, op, get, pipe, w)
			})
			l.tr.end(get)
			if err != nil {
				return search.EvalResult{}, err
			}
			if capt.OOM {
				return search.EvalResult{OOM: true, PeakMem: capt.PeakMemBytes, Verdict: true}, nil
			}
			simID := l.tr.begin("simulate", op, eval)
			start := time.Now()
			rep, err := pipe.SimulateScratch(ctx, capt, flops, maya.BF16, scratch, bound)
			l.tr.end(simID)
			if err != nil {
				return search.EvalResult{}, err
			}
			// SimulateScratch times its plan fill and engine run itself;
			// record them as the simulate span's children.
			fillEnd := start.Add(rep.Stages.Estimate)
			l.tr.add("estimate.fill", op, simID, start, fillEnd)
			l.tr.add("sim", op, simID, fillEnd, fillEnd.Add(rep.Stages.Simulate))
			l.countSim(capt, rep.Truncated)
			if rep.Truncated {
				return search.EvalResult{Truncated: true, PeakMem: rep.PeakMemBytes}, nil
			}
			return search.EvalResult{OOM: rep.OOM, IterTime: rep.IterTime, MFU: rep.MFU, PeakMem: rep.PeakMemBytes}, nil
		}
	}
	o, err := search.RunWorkers(ctx, c.setup.problem(), factory, opts)
	if err != nil {
		return nil, err
	}
	if st != nil {
		st.add(o)
	}
	return o, nil
}
