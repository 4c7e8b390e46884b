package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"maya"
	"maya/internal/core"
	"maya/internal/estimator"
	"maya/internal/serve"
	"maya/internal/silicon"
)

// The serve workload is the maya-serve user: an in-process server on
// 8xV100 with maya-serve's defaults but a smaller capture cache,
// served over loopback HTTP to one closed-loop client with think
// time. About 90% of requests repeat a
// Zipf-skewed hot set that set-up warms, annotated learned, oracle or
// physical in a 60/20/20 split; the rest are recipes the server has
// never seen. It exercises admission, shedding, breakers, coalescing
// and the pool, the capture-cache hit path and the oracle annotation;
// capture runs only for the fresh share.

const (
	// serveThink is the client's mean think time between an answer
	// and its next request. The server is busy a little under half
	// the time, and a run holds some 2,500 requests.
	serveThink = 5 * time.Millisecond
	// serveLimit is the latency limit at p99; every request carries it
	// as its deadline.
	serveLimit = 250 * time.Millisecond
	// minServeOps is the fewest requests a run sends, so p95 has fifty
	// samples beyond it.
	minServeOps        = 1000
	serveHotSize       = 24
	hotMaxMicrobatches = 8
	// serveFreshEvery places one fresh request, at a seeded position,
	// in every block of this many requests: 10% fresh in any prefix.
	serveFreshEvery = 10
	// serveTail is the tail quantile serve reports. Fresh captures are
	// the costliest requests, and one capture's CPU cost varies up to
	// fivefold between runs of the same seed (0–25 ms of it is the
	// kernel faulting in pages as the heap regrows). p99 is the 90th
	// percentile of the fresh captures and spread by a quarter across
	// seeds; p95 is their median.
	serveTail  = 0.95
	serveZipfS = 1.1
	// serveCaptureCache is the server's capture-cache size, the one
	// setting that differs from maya-serve's defaults. A capture of an
	// 8xV100 recipe holds about 5 MB; the default 256 entries fill
	// with fresh recipes during a run and grow the heap past 1 GB, so
	// the run would measure the cache filling and the garbage
	// collector marking it rather than a steady state. 64 entries hold
	// the hot set plus the most recent fresh recipes.
	serveCaptureCache = 64
	clientTimeout     = 5 * time.Second
	// serveAgreeSample is how many answers the path-agreement check
	// recomputes through the server's own predictor.
	serveAgreeSample = 48
	// serveDecomposed is how many requests, from the start of the
	// schedule, the traced run decomposes into layer calls.
	serveDecomposed = 150
	// hotSetSeed fixes the hot set: which recipes are hot sets most of
	// the service time, so drawing them per seed would move p50 by the
	// recipes' own cost. freshSeed fixes the order of the fresh
	// recipes for the same reason: the fresh captures make up the
	// tail of the costs. The run's seed draws think times, Zipf
	// ranks, annotations and where in each block the fresh request
	// goes.
	hotSetSeed = 1
	freshSeed  = 1
	tagHot     = 0x686f74
	tagFresh   = 0x66726573
	tagServe   = 0x73657276
)

var annotations = []string{"learned", "oracle", "physical"}

// hotSetups are the hot set's setups: the 8xV100 sweeps of predict.
func hotSetups() []*setup {
	return []*setup{
		{name: "gpt3-1.3b/8xV100", cluster: maya.DGXV100(1), model: maya.GPT3_1_3B(), batch: 32, preset: "gpt3-1.3b"},
		{name: "gpt3-2.7b/8xV100", cluster: maya.DGXV100(1), model: maya.GPT3_2_7B(), batch: 64, preset: "gpt3-2.7b"},
	}
}

// freshSetups are where fresh recipes come from: the hot setups'
// models at other global batches, so no fresh recipe is ever hot.
func freshSetups() []*setup {
	return []*setup{
		{name: "gpt3-1.3b/8xV100/b16", cluster: maya.DGXV100(1), model: maya.GPT3_1_3B(), batch: 16, preset: "gpt3-1.3b"},
		{name: "gpt3-2.7b/8xV100/b16", cluster: maya.DGXV100(1), model: maya.GPT3_2_7B(), batch: 16, preset: "gpt3-2.7b"},
	}
}

func specFor(r recipe, annotation string, deadline time.Duration) serve.PredictSpec {
	c := r.cfg
	return serve.PredictSpec{
		Model: r.setup.preset, GlobalBatch: c.GlobalBatch,
		TP: c.TP, PP: c.PP, MicroBatches: c.MicroBatches, VirtualStages: c.VirtualStages,
		SeqParallel: c.SeqParallel, ActRecompute: c.ActRecompute, DistOptimizer: c.DistOptimizer,
		Annotation: annotation, DeadlineMS: deadline.Milliseconds(),
	}
}

// predictOptions are the options the server derives from a spec.
func predictOptions(r recipe, annotation string) []maya.PredictOption {
	opts := []maya.PredictOption{maya.WithModelFLOPs(r.setup.flops()), maya.WithDType(maya.BF16)}
	switch annotation {
	case "oracle":
		opts = append(opts, maya.WithOracleAnnotation())
	case "physical":
		opts = append(opts, maya.WithPhysicalReplay())
	}
	return opts
}

// wireResult is the part of a /v1/predict answer the benchmark reads.
type wireResult struct {
	Report *struct {
		IterTimeNS int64   `json:"iter_time_ns"`
		OOM        bool    `json:"oom"`
		MFU        float64 `json:"mfu"`
	} `json:"report"`
	Error    string `json:"error"`
	Degraded bool   `json:"degraded"`
}

// request is one request of the sequence the clients send.
type request struct {
	think      time.Duration // the client's pause before sending it
	r          recipe
	annotation string
	fresh      bool
}

func (q request) key() string { return q.r.String() + "/" + q.annotation }

// response is what the client saw for one request.
type response struct {
	status   int
	late     time.Duration // how far the think time overran
	latency  time.Duration // from send to the full body
	cpu      time.Duration // the process's CPU time over the same span
	result   wireResult
	err      error
	clientID int // root span id in the traced run
}

func (r response) ok() bool {
	return r.err == nil && r.status == http.StatusOK && !r.result.Degraded && r.result.Report != nil
}

// serveEnv is one booted server with its hot set warmed.
type serveEnv struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	client  *http.Client
	hot     []recipe
	learned map[string]wireResult
	actual  map[string]wireResult
	trainMS float64
}

func bootServe(ctx context.Context, handler func(http.Handler) http.Handler) (*serveEnv, error) {
	srv, err := serve.New(serve.Config{Cluster: maya.DGXV100(1), Profile: maya.ProfileLLM, CaptureCacheSize: serveCaptureCache})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := srv.Warm(ctx); err != nil {
		return nil, err
	}
	trainMS := ms(time.Since(t0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if handler != nil {
		h = handler(h)
	}
	e := &serveEnv{
		srv:    srv,
		hs:     &http.Server{Handler: h},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   clientTimeout,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
		learned: map[string]wireResult{},
		actual:  map[string]wireResult{},
		trainMS: trainMS,
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	if err := e.warmHotSet(ctx); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// warmHotSet sends every hot recipe once per annotation. The hot set
// is the first serveHotSize recipes of a fixed stratified draw that
// do not run out of memory and run at most hotMaxMicrobatches
// microbatches: a hot recipe whose simulation takes tens of
// milliseconds would hold one of the client's few connections often
// enough to set p50 by itself.
func (e *serveEnv) warmHotSet(ctx context.Context) error {
	var all []recipe
	for _, s := range hotSetups() {
		all = append(all, validRecipes(s)...)
	}
	for _, round := range stratifiedRounds(all, newRNG(hotSetSeed, tagHot)) {
		for _, r := range round {
			if len(e.hot) == serveHotSize {
				return nil
			}
			if r.cfg.MicroBatches > hotMaxMicrobatches {
				continue
			}
			res, err := e.post(ctx, specFor(r, "learned", 0))
			if err != nil {
				return fmt.Errorf("warming %s: %w", r, err)
			}
			if res.result.Report.OOM {
				continue
			}
			e.hot = append(e.hot, r)
			e.learned[r.String()] = res.result
			for _, ann := range annotations[1:] {
				res, err := e.post(ctx, specFor(r, ann, 0))
				if err != nil {
					return fmt.Errorf("warming %s/%s: %w", r, ann, err)
				}
				if ann == "physical" {
					e.actual[r.String()] = res.result
				}
			}
		}
	}
	return errors.New("too few recipes for the hot set")
}

// post sends one prediction and reads the whole answer; a non-200 or
// degraded answer is an error.
func (e *serveEnv) post(ctx context.Context, spec serve.PredictSpec) (response, error) {
	res := e.send(ctx, spec, 0)
	if res.err != nil {
		return res, res.err
	}
	if !res.ok() {
		return res, fmt.Errorf("status %d degraded=%t: %s", res.status, res.result.Degraded, res.result.Error)
	}
	return res, nil
}

// send posts one prediction, timing it from the send to the end of
// the answer; span, when non-zero, names the client span the
// handler's span nests under.
func (e *serveEnv) send(ctx context.Context, spec serve.PredictSpec, span int) response {
	body, err := json.Marshal(spec)
	if err != nil {
		return response{err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return response{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	t0, c0 := time.Now(), cpuTime()
	resp, err := e.client.Do(req)
	if err != nil {
		return response{err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	out := response{status: resp.StatusCode, latency: time.Since(t0), cpu: cpuTime() - c0}
	if err != nil {
		out.err = err
		return out
	}
	if err := json.Unmarshal(raw, &out.result); err != nil {
		out.err = fmt.Errorf("decoding answer: %w", err)
	}
	return out
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.srv.Drain()
	e.hs.Shutdown(ctx)
	<-e.served
	e.client.CloseIdleConnections()
}

func freshRecipes() []recipe {
	var out []recipe
	for _, s := range freshSetups() {
		out = append(out, validRecipes(s)...)
	}
	return out
}

// schedule draws the run's request sequence: enough for a client
// that never waits on the server, and at least minServeOps.
func (e *serveEnv) schedule(seed uint64, seconds time.Duration) []request {
	rng := newRNG(seed, tagServe)
	zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(len(e.hot)-1))
	// Fresh recipes come in a fixed stratified order, so any prefix of
	// it has nearly the same mix of capture costs.
	var fresh []recipe
	for _, round := range stratifiedRounds(freshRecipes(), newRNG(freshSeed, tagFresh)) {
		fresh = append(fresh, round...)
	}
	n := minServeOps + int(seconds/serveThink)
	reqs := make([]request, 0, n)
	freshAt := 0
	for len(reqs) < n {
		if len(reqs)%serveFreshEvery == 0 {
			freshAt = len(reqs) + rng.IntN(serveFreshEvery)
		}
		q := request{think: time.Duration(rng.ExpFloat64() * float64(serveThink))}
		if len(reqs) == freshAt && len(fresh) > 0 {
			q.r, q.annotation, q.fresh = fresh[0], "learned", true
			fresh = fresh[1:]
		} else {
			q.r = e.hot[zipf.Uint64()]
			switch u := rng.Float64(); {
			case u < 0.6:
				q.annotation = "learned"
			case u < 0.8:
				q.annotation = "oracle"
			default:
				q.annotation = "physical"
			}
		}
		reqs = append(reqs, q)
	}
	return reqs
}

// load sends the sequence from one client: it waits each request's
// think time after the previous answer, sends the request and reads
// the whole answer. The host reference, when given, is timed once in
// each think time. It stops once the timed phase is over and at
// least minServeOps were sent, so the requests sent are a prefix of
// the sequence. With one request in flight, the process's CPU time
// across a request is that request's cost, client and server
// together. In the traced run each request gets a client span the
// handler span nests under.
func (e *serveEnv) load(ctx context.Context, reqs []request, seconds time.Duration, tr *tracer, host *hostRef) []response {
	var out []response
	deadline := time.Now().Add(seconds)
	for i, q := range reqs {
		if i >= minServeOps && time.Now().After(deadline) {
			break
		}
		due := time.Now().Add(q.think)
		if host != nil {
			host.sample()
		}
		time.Sleep(time.Until(due))
		late := time.Since(due)
		span := 0
		if tr != nil {
			span = tr.begin("serve.request", i, 0)
		}
		res := e.send(ctx, specFor(q.r, q.annotation, serveLimit), span)
		if tr != nil {
			tr.end(span)
		}
		res.late = late
		res.clientID = span
		out = append(out, res)
	}
	return out
}

func runServe(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	var l *layers
	var mw func(http.Handler) http.Handler
	if cfg.traced {
		l = newLayers()
		mw = func(h http.Handler) http.Handler { return handlerSpans(l.tr, h) }
	}
	env, setupS, err := repeatSetup(func() (*serveEnv, error) { return bootServe(ctx, mw) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	reqs := env.schedule(cfg.seed, cfg.seconds)

	out := &outcome{metrics: map[string]float64{}}
	var tr *tracer
	if cfg.traced {
		tr = l.tr
		out.spans = tr
	}
	cacheBefore := env.srv.Predictor().CaptureCache().Stats()
	countersBefore, err := env.scrapeMetrics()
	if err != nil {
		return nil, err
	}
	var host *hostRef
	if !cfg.traced {
		host = newHostRef()
	}
	runtime.GC()
	before := readRuntime()
	resps := env.load(ctx, reqs, cfg.seconds, tr, host)
	after := readRuntime()
	cacheAfter := env.srv.Predictor().CaptureCache().Stats()
	countersAfter, err := env.scrapeMetrics()
	if err != nil {
		return nil, err
	}

	var cpus, lates []float64
	good := 0
	answers := map[string]int64{} // iter_time_ns by request key
	for i, res := range resps {
		out.attempted++
		cpu := res.cpu
		lates = append(lates, ms(res.late))
		if !res.ok() {
			out.failed++
			// A failed or refused request costs little, but its user
			// got nothing: count it as just over the limit.
			cpu = max(cpu, serveLimit+time.Millisecond)
		} else {
			if res.latency <= serveLimit {
				good++
			}
			got := res.result.Report.IterTimeNS
			if prev, seen := answers[reqs[i].key()]; seen && prev != got {
				out.problemf("%s answered %d then %d", reqs[i].key(), prev, got)
			}
			answers[reqs[i].key()] = got
		}
		cpus = append(cpus, ms(cpu))
	}
	if err := env.checkAgreement(ctx, out, reqs, resps, cfg.seed); err != nil {
		return nil, err
	}
	if out.digest, err = env.freshDigest(ctx, reqs, resps); err != nil {
		return nil, err
	}

	if cfg.traced {
		m := out.metrics
		sent := len(resps)
		serveCounters(m, countersBefore, countersAfter, sent)
		hits, misses := cacheAfter.Hits-cacheBefore.Hits, cacheAfter.Misses-cacheBefore.Misses
		m["capture_cache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
		m["capture_cache.evictions"] = ratio(float64(cacheAfter.Evictions-cacheBefore.Evictions), float64(sent))
		m["loadgen.late_p99_ms"] = quantile(lates, 0.99)
		runtimeMetrics(m, before, after, sent)
		m["serve.http_ms"] = httpShare(tr, resps)
		if err := env.decompose(ctx, out, l, reqs, resps); err != nil {
			return nil, err
		}
		out.problems = append(out.problems, tr.check(nil)...)
		return out, nil
	}

	var errs, mfus []float64
	for _, r := range env.hot {
		pred, act := env.learned[r.String()].Report, env.actual[r.String()].Report
		errs = append(errs, 100*math.Abs(float64(pred.IterTimeNS-act.IterTimeNS))/float64(act.IterTimeNS))
		mfus = append(mfus, pred.MFU)
	}
	out.metrics["setup_s"] = setupS
	out.metrics["cpu_p50_ref"] = host.rel(quantile(cpus, 0.5))
	out.metrics["cpu_tail_ref"] = host.rel(quantile(cpus, serveTail))
	out.metrics["heap_live_mb"] = heapLiveMB()
	runtime.KeepAlive(env)
	out.metrics["error_pct"] = mean(errs)
	out.metrics["best_mfu"] = quantile(mfus, 1)
	out.metrics["good_share"] = ratio(float64(good), float64(out.attempted))
	return out, nil
}

// checkAgreement recomputes a seeded sample of the HTTP answers with
// Predict on the server's own predictor: the two paths must agree to
// the nanosecond.
func (e *serveEnv) checkAgreement(ctx context.Context, out *outcome, reqs []request, resps []response, seed uint64) error {
	rng := newRNG(seed, tagServe+1)
	var okIdx []int
	for i, res := range resps {
		if res.ok() {
			okIdx = append(okIdx, i)
		}
	}
	rng.Shuffle(len(okIdx), func(i, j int) { okIdx[i], okIdx[j] = okIdx[j], okIdx[i] })
	for _, i := range okIdx[:min(serveAgreeSample, len(okIdx))] {
		q := reqs[i]
		w, err := q.r.workload()
		if err != nil {
			return err
		}
		rep, err := e.srv.Predictor().Predict(ctx, w, predictOptions(q.r, q.annotation)...)
		if err != nil {
			return fmt.Errorf("predicting %s: %w", q.key(), err)
		}
		if got := resps[i].result.Report.IterTimeNS; got != rep.IterTime.Nanoseconds() {
			out.problemf("%s: HTTP answered %d ns, Predict %d ns", q.key(), got, rep.IterTime.Nanoseconds())
		}
	}
	return nil
}

// freshDigest renders the answers to the first fresh recipes of the
// schedule. A fresh request the server did not answer in time is
// recomputed with Predict, which the agreement check holds equal.
func (e *serveEnv) freshDigest(ctx context.Context, reqs []request, resps []response) (string, error) {
	const n = 32
	var dg digest
	for i, q := range reqs {
		if !q.fresh {
			continue
		}
		if len(dg.lines) == n {
			break
		}
		var iter int64
		if resps[i].ok() {
			iter = resps[i].result.Report.IterTimeNS
		} else {
			w, err := q.r.workload()
			if err != nil {
				return "", err
			}
			rep, err := e.srv.Predictor().Predict(ctx, w, predictOptions(q.r, q.annotation)...)
			if err != nil {
				return "", fmt.Errorf("predicting %s: %w", q.key(), err)
			}
			iter = rep.IterTime.Nanoseconds()
		}
		dg.add("%s iter_ns=%d", q.key(), iter)
	}
	return dg.sum(), nil
}

// spanHeader carries the client span id to the handler span.
const spanHeader = "X-Perfbench-Span"

// handlerSpans records a "serve.handler" span around the server's
// handler, nested under the client span named in the request.
func handlerSpans(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil || parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		id := tr.begin("serve.handler", tr.opOf(parent), parent)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// httpShare is the mean time per answered request spent outside the
// handler: the client round trip minus the handler span.
func httpShare(tr *tracer, resps []response) float64 {
	kids := tr.children()
	var total time.Duration
	n := 0
	for _, res := range resps {
		if !res.ok() || res.clientID == 0 {
			continue
		}
		for _, k := range kids[res.clientID] {
			if k.Name == "serve.handler" {
				total += tr.spanDur(res.clientID) - k.dur()
				n++
			}
		}
	}
	return ratio(ms(total), float64(n))
}

// scrapeMetrics reads the unlabelled series of /metrics.
func (e *serveEnv) scrapeMetrics() (map[string]float64, error) {
	resp, err := e.client.Get(e.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		name, v, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err == nil {
			vals[name] = f
		}
	}
	return vals, nil
}

// serveCounters fills the serve.* metrics from the /metrics series'
// growth over the load phase, per request sent.
func serveCounters(m map[string]float64, before, after map[string]float64, sent int) {
	delta := func(name string) float64 { return after[name] - before[name] }
	per := func(name string) float64 { return ratio(delta(name), float64(sent)) }
	m["serve.queue_wait_mean_ms"] = 1000 * ratio(delta("maya_serve_queue_wait_seconds_sum"), delta("maya_serve_queue_wait_seconds_count"))
	m["serve.executed"] = per("maya_serve_predictions_executed_total")
	m["serve.coalesced"] = per("maya_serve_predictions_coalesced_total")
	m["serve.shed"] = per("maya_serve_shed_total")
	m["serve.degraded"] = per("maya_serve_degraded_total")
	m["serve.rejected"] = per("maya_serve_rejected_total")
}

// decompose replays the first serveDecomposed requests three ways:
// the handler in-process, Predict on the server's predictor, and the
// layer calls Predict composes (capture through a capture cache warm
// with the hot set, then plan fill, oracle annotation or physical
// replay, then simulation) under spans. All three must give the HTTP
// answer. The handler minus Predict is the serving stack's share;
// the decomposition against Predict on hot requests is the tracing
// overhead.
func (e *serveEnv) decompose(ctx context.Context, out *outcome, l *layers, reqs []request, resps []response) error {
	cl := maya.DGXV100(1)
	suite, _, err := core.DefaultSuiteCache().SuiteFor(ctx, cl, core.DefaultOracle(cl), estimator.ProfileLLM)
	if err != nil {
		return err
	}
	oracle := core.DefaultOracle(cl)
	pipe := &core.Pipeline{Cluster: cl, Suite: suite, Opts: core.Options{SelectiveLaunch: true}}
	lru := core.NewCaptureLRU(serveHotSize + serveDecomposed)
	captureOf := func(op, parent int, q request) (*core.Capture, error) {
		w, err := q.r.workload()
		if err != nil {
			return nil, err
		}
		c, _, err := lru.Get(ctx, q.r.String(), func() (*core.Capture, error) {
			if parent == 0 {
				return pipe.Capture(ctx, w)
			}
			return l.capture(ctx, op, parent, pipe, w)
		})
		return c, err
	}
	// The server's cache holds the hot set since set-up; so does this
	// one, untraced.
	for _, r := range e.hot {
		if _, err := captureOf(0, 0, request{r: r}); err != nil {
			return err
		}
	}

	l.plans = map[*core.Capture]*estimator.EstimatePlan{}
	var stack, traced, facade time.Duration
	n := min(serveDecomposed, len(resps))
	for i := 0; i < n; i++ {
		q := reqs[i]
		w, err := q.r.workload()
		if err != nil {
			return err
		}
		// The server's capture cache may have evicted a fresh recipe
		// since the load phase; recapture it untimed so the handler and
		// Predict below both find it cached.
		if _, err := e.srv.Predictor().Capture(ctx, w); err != nil {
			return fmt.Errorf("capturing %s: %w", q.key(), err)
		}
		body, err := json.Marshal(specFor(q.r, q.annotation, 0))
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		t0 := time.Now()
		e.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		dHandler := time.Since(t0)
		t0 = time.Now()
		rep, err := e.srv.Predictor().Predict(ctx, w, predictOptions(q.r, q.annotation)...)
		dFacade := time.Since(t0)
		if err != nil {
			return fmt.Errorf("predicting %s: %w", q.key(), err)
		}
		var direct wireResult
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &direct) != nil || direct.Report == nil {
			out.problemf("%s: in-process handler answered %d", q.key(), rec.Code)
			continue
		}
		stack += dHandler - dFacade

		op := len(reqs) + i
		t0 = time.Now()
		iter, oom, err := e.decomposedOne(ctx, l, op, q, captureOf, suite, oracle)
		dTraced := time.Since(t0)
		if err != nil {
			return fmt.Errorf("decomposing %s: %w", q.key(), err)
		}
		if !q.fresh {
			traced += dTraced
			facade += dFacade
		}
		want := rep.IterTime.Nanoseconds()
		if iter != want || oom != rep.OOM || direct.Report.IterTimeNS != want {
			out.problemf("%s: traced %d ns, handler %d ns, Predict %d ns", q.key(), iter, direct.Report.IterTimeNS, want)
		}
		if resps[i].ok() && resps[i].result.Report.IterTimeNS != want {
			out.problemf("%s: HTTP answered %d ns, Predict %d ns", q.key(), resps[i].result.Report.IterTimeNS, want)
		}
	}
	l.metrics(out.metrics, n)
	out.metrics["suite.train_ms"] = e.trainMS
	out.metrics["serve.stack_ms"] = ratio(ms(stack), float64(n))
	out.metrics["trace.overhead_pct"] = overheadPct(traced, facade)
	return nil
}

// decomposedOne answers one request through the layer calls.
func (e *serveEnv) decomposedOne(ctx context.Context, l *layers, op int, q request,
	captureOf func(op, parent int, q request) (*core.Capture, error), suite *estimator.Suite, oracle *silicon.Oracle) (int64, bool, error) {
	root := l.tr.begin("predict", op, 0)
	defer l.tr.end(root)
	c, err := captureOf(op, root, q)
	if err != nil {
		return 0, false, err
	}
	if c.OOM {
		return 0, true, nil
	}
	var sr interface{ IterTime() time.Duration }
	switch q.annotation {
	case "oracle":
		sr, err = l.oracle(ctx, op, root, oracle, c)
	case "physical":
		sr, err = l.measure(ctx, op, root, oracle, c, 0)
	default:
		sr, err = l.learned(ctx, op, root, suite, c)
	}
	if err != nil {
		return 0, false, err
	}
	return sr.IterTime().Nanoseconds(), false, nil
}
