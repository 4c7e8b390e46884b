package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"maya"
	"maya/internal/core"
	"maya/internal/estimator"
)

// The predict workload is the `maya predict` / PredictBatch sweep
// user: a closed loop with one client, each operation one cold
// Predict (learned annotation, warm estimator suites, no capture
// cache) of a recipe the run has not seen. Capture and estimate-plan
// build do most of its work.

const (
	// minPredictOps is the fewest operations a run holds. The answer
	// digest and best_mfu cover exactly these, so they do not depend on
	// how far a run gets; p95 has twenty samples beyond it.
	minPredictOps = 400
	// validationPerSetup is how many recipes per setup the accuracy
	// check measures.
	validationPerSetup = 10
	// maxPredictMAPE bounds the mean prediction error: the paper
	// reports Maya within 5% of measured iteration time, so an error
	// twice that is a broken answer, not a slower one.
	maxPredictMAPE = 10.0
	tagPredict     = 0x70726564
	// validationSeed fixes the accuracy check's recipes, so error_pct
	// compares the same recipes on every run and every seed.
	validationSeed = 1
	tagValidation  = 0x76616c
)

func predictSetups() []*setup {
	return []*setup{
		{name: "gpt3-1.3b/8xV100", cluster: maya.DGXV100(1), model: maya.GPT3_1_3B(), batch: 32},
		{name: "gpt3-2.7b/8xV100", cluster: maya.DGXV100(1), model: maya.GPT3_2_7B(), batch: 64},
		{name: "gpt3-18.4b/64xH100", cluster: maya.DGXH100(8), model: maya.GPT3_18_4B(), batch: 128},
		{name: "gpt3-1.3b/256xH100", cluster: maya.DGXH100(32), model: maya.GPT3_1_3B(), batch: 256, classHinted: true},
	}
}

// predictAnswer is what one operation answered.
type predictAnswer struct {
	r        recipe
	iterTime time.Duration
	mfu      float64
	oom      bool
}

type predictEnv struct {
	preds   map[*setup]*maya.Predictor
	trainMS float64
}

func runPredict(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	setups := predictSetups()
	var all []recipe
	for _, s := range setups {
		all = append(all, validRecipes(s)...)
	}
	var stream []recipe
	for _, round := range stratifiedRounds(all, newRNG(cfg.seed, tagPredict)) {
		stream = append(stream, round...)
	}

	env, setupS, err := repeatSetup(func() (*predictEnv, error) {
		// Every set-up trains from scratch: the facade's default
		// estimator cache is the one the traced decomposition reads
		// its suites from, so both paths share one suite per cluster.
		maya.DefaultEstimatorCache().Purge()
		e := &predictEnv{preds: map[*setup]*maya.Predictor{}}
		t0 := time.Now()
		for _, s := range setups {
			p, err := maya.NewPredictor(s.cluster, maya.ProfileLLM)
			if err != nil {
				return nil, err
			}
			if err := p.Warm(ctx); err != nil {
				return nil, err
			}
			e.preds[s] = p
		}
		e.trainMS = ms(time.Since(t0))
		return e, nil
	}, func(e *predictEnv) { *e = predictEnv{} })
	if err != nil {
		return nil, err
	}

	out := &outcome{metrics: map[string]float64{}}
	facade := func(r recipe) (predictAnswer, error) {
		w, err := r.workload()
		if err != nil {
			return predictAnswer{}, err
		}
		rep, err := env.preds[r.setup].Predict(ctx, w, maya.WithModelFLOPs(r.setup.flops()))
		if err != nil {
			return predictAnswer{}, err
		}
		return predictAnswer{r: r, iterTime: rep.IterTime, mfu: rep.MFU, oom: rep.OOM}, nil
	}

	var first []predictAnswer // the first minPredictOps answers, which every run holds
	var cpus []float64
	host := newHostRef()
	var l *layers
	var tracedTime, facadeTime time.Duration
	var facadeAllocs float64
	if cfg.traced {
		l = newLayers()
		out.spans = l.tr
	}
	runtime.GC()
	before := readRuntime()
	deadline := time.Now().Add(cfg.seconds)
	for _, r := range stream {
		if out.attempted >= minPredictOps && time.Now().After(deadline) {
			break
		}
		op := out.attempted
		out.attempted++
		var a predictAnswer
		if !cfg.traced {
			c0 := cpuTime()
			a, err = facade(r)
			cpus = append(cpus, ms(cpuTime()-c0))
			host.sample()
		} else {
			a, err = tracedPredictOp(ctx, l, op, r, facade, &tracedTime, &facadeTime, &facadeAllocs)
		}
		if err != nil {
			out.failed++
			out.problemf("%s: %v", r, err)
			continue
		}
		if !a.oom && (a.iterTime <= 0 || a.mfu <= 0 || a.mfu >= 1) {
			out.problemf("%s: implausible answer iter=%v mfu=%g", r, a.iterTime, a.mfu)
		}
		if op < minPredictOps {
			first = append(first, a)
		}
	}
	after := readRuntime()

	var dg digest
	for _, a := range first {
		dg.add("%s iter_ns=%d mfu=%016x oom=%t", a.r, a.iterTime.Nanoseconds(), math.Float64bits(a.mfu), a.oom)
	}
	out.digest = dg.sum()

	if cfg.traced {
		l.metrics(out.metrics, out.attempted)
		out.metrics["suite.train_ms"] = env.trainMS
		out.metrics["trace.overhead_pct"] = overheadPct(tracedTime, facadeTime)
		runtimeMetrics(out.metrics, before, after, out.attempted)
		out.metrics["runtime.alloc_bytes_per_op"] = ratio(facadeAllocs, float64(out.attempted))
		out.problems = append(out.problems, l.tr.check(nil)...)
		return out, nil
	}

	mape, err := predictMAPE(ctx, env, validationSet(all))
	if err != nil {
		return nil, err
	}
	if mape > maxPredictMAPE {
		out.problemf("mean prediction error %.2f%% exceeds %.0f%%", mape, maxPredictMAPE)
	}
	out.metrics["setup_s"] = setupS
	out.metrics["cpu_p50_ref"] = host.rel(quantile(cpus, 0.5))
	out.metrics["cpu_tail_ref"] = host.rel(quantile(cpus, 0.95))
	out.metrics["heap_live_mb"] = heapLiveMB()
	runtime.KeepAlive(env)
	out.metrics["error_pct"] = mape
	out.metrics["best_mfu"] = bestMFUPerSetup(first)
	out.metrics["good_share"] = ratio(float64(out.attempted-out.failed), float64(out.attempted))
	return out, nil
}

// validationSet is the accuracy check's fixed recipes: the first
// validationPerSetup recipes of each setup in a stratified draw made
// with validationSeed. A mean error over a few hundred recipes drawn
// per seed still spreads by about a tenth across seeds, because a few
// recipes carry most of the error; a fixed set does not.
func validationSet(all []recipe) []recipe {
	per := map[*setup]int{}
	var out []recipe
	for _, round := range stratifiedRounds(all, newRNG(validationSeed, tagValidation)) {
		for _, r := range round {
			if per[r.setup] < validationPerSetup {
				per[r.setup]++
				out = append(out, r)
			}
		}
	}
	return out
}

// predictMAPE is the mean of |Predict − MeasureActual| / actual, in
// percent, over the recipes that do not run out of memory.
func predictMAPE(ctx context.Context, env *predictEnv, recipes []recipe) (float64, error) {
	var errs []float64
	for _, r := range recipes {
		w, err := r.workload()
		if err != nil {
			return 0, err
		}
		p := env.preds[r.setup]
		pred, err := p.Predict(ctx, w)
		if err != nil {
			return 0, fmt.Errorf("predicting %s: %w", r, err)
		}
		if pred.OOM {
			continue
		}
		act, err := p.MeasureActual(ctx, w)
		if err != nil {
			return 0, fmt.Errorf("measuring %s: %w", r, err)
		}
		if act.IterTime <= 0 {
			return 0, fmt.Errorf("measuring %s: non-positive iteration time", r)
		}
		errs = append(errs, 100*math.Abs(float64(pred.IterTime-act.IterTime))/float64(act.IterTime))
	}
	return mean(errs), nil
}

// bestMFUPerSetup is what a sweep user takes away: the highest
// predicted MFU among the sweep's recipes, averaged over setups.
func bestMFUPerSetup(answers []predictAnswer) float64 {
	best := map[*setup]float64{}
	for _, a := range answers {
		if !a.oom {
			best[a.r.setup] = max(best[a.r.setup], a.mfu)
		}
	}
	var bs []float64
	for _, b := range best {
		bs = append(bs, b)
	}
	return mean(bs)
}

// tracedPredictOp answers one recipe twice, alternating which goes
// first: through the decomposed layer calls under spans, and through
// the untraced facade. The two answers must be identical.
func tracedPredictOp(ctx context.Context, l *layers, op int, r recipe, facade func(recipe) (predictAnswer, error),
	tracedTime, facadeTime *time.Duration, facadeAllocs *float64) (predictAnswer, error) {
	var dec, fac predictAnswer
	var decErr, facErr error
	runFacade := func() {
		before := readRuntime()
		t0 := time.Now()
		fac, facErr = facade(r)
		*facadeTime += time.Since(t0)
		*facadeAllocs += readRuntime().allocBytes - before.allocBytes
	}
	runDecomposed := func() {
		t0 := time.Now()
		dec, decErr = decomposedPredict(ctx, l, op, r)
		*tracedTime += time.Since(t0)
	}
	if op%2 == 0 {
		runFacade()
		runDecomposed()
	} else {
		runDecomposed()
		runFacade()
	}
	if facErr != nil {
		return predictAnswer{}, facErr
	}
	if decErr != nil {
		return predictAnswer{}, fmt.Errorf("traced decomposition: %w", decErr)
	}
	if dec.iterTime != fac.iterTime || dec.oom != fac.oom {
		return predictAnswer{}, fmt.Errorf("traced answer iter=%v oom=%t differs from facade iter=%v oom=%t",
			dec.iterTime, dec.oom, fac.iterTime, fac.oom)
	}
	return fac, nil
}

// decomposedPredict is Predict composed from its layers' public
// calls: Pipeline.Capture, Suite.BuildEstimatePlan, Fill into a
// pooled overlay, sim.RunPooled. The suite comes from the same
// default cache the facade predictor uses.
func decomposedPredict(ctx context.Context, l *layers, op int, r recipe) (predictAnswer, error) {
	root := l.tr.begin("predict", op, 0)
	defer l.tr.end(root)
	cl := r.setup.cluster
	suite, _, err := core.DefaultSuiteCache().SuiteFor(ctx, cl, core.DefaultOracle(cl), estimator.ProfileLLM)
	if err != nil {
		return predictAnswer{}, err
	}
	w, err := r.workload()
	if err != nil {
		return predictAnswer{}, err
	}
	pipe := &core.Pipeline{Cluster: cl, Suite: suite, Opts: core.Options{SelectiveLaunch: true}}
	c, err := l.capture(ctx, op, root, pipe, w)
	if err != nil {
		return predictAnswer{}, err
	}
	if c.OOM {
		return predictAnswer{r: r, oom: true}, nil
	}
	sr, err := l.learned(ctx, op, root, suite, c)
	if err != nil {
		return predictAnswer{}, err
	}
	return predictAnswer{r: r, iterTime: sr.IterTime()}, nil
}
