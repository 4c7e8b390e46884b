// Command maya-serve is the long-running Maya prediction service: an
// HTTP/JSON daemon fronting one shared predictor with per-tenant
// token buckets (the X-Maya-Tenant header), one admission gate per
// prediction (a cap of -queue predictions in flight, overload
// shedding, circuit breakers, degraded stale answers), single-flight
// coalescing of identical predictions, a bounded prediction worker
// pool, a fingerprinted capture cache, and warm-started estimator
// suites.
//
//	maya-serve -addr :8080 -cluster 32xH100 -workers 8 -preload 8xV100,8xA40/vision
//
// Endpoints:
//
//	POST /v1/predict          one prediction, or {"requests":[...]} for a batch
//	POST /v1/capture          capture a workload, archive the trace
//	GET  /v1/traces/{fp}      download a serialized trace (maya simulate -trace)
//	POST /v1/traces           upload a serialized trace
//	GET  /metrics             Prometheus text metrics
//	GET  /healthz             build info, cache stats, drain state
//
// SIGTERM (or Ctrl-C) drains gracefully: new requests get 503,
// /healthz flips to "draining" so balancers stop routing, in-flight
// predictions finish, the trace store is snapshotted, then the
// listener closes and the process exits zero.
//
// Resilience knobs: -queue caps predictions in flight (a batch of k
// counts k; an arrival beyond the cap is shed with 503 and
// X-Maya-Shed: queue), -shed-target/-shed-interval shape CoDel-style
// overload shedding, -breaker-threshold/-breaker-probe the
// per-dependency circuit breakers, -degrade-cache the stale-result
// cache served (marked `"degraded": true`) for any shed verdict or an
// open breaker. -state persists the trace store across restarts
// (atomic snapshots, per-entry checksum validation at boot). -chaos
// loads a seeded fault-injection plan — the deterministic chaos
// harness used by the CI chaos smoke:
//
//	{"seed": 42, "events": [
//	  {"kind": "outage", "target": "predict", "from_ms": 3000, "until_ms": 5000}
//	]}
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"maya"
	"maya/internal/buildinfo"
	"maya/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		clusterSpec = flag.String("cluster", "32xH100", "cluster spec the service models (e.g. 8xV100, 64xH100)")
		topology    = flag.String("topology", "", "network fabric spec: auto (default), flat, rail, oversub:K, pods:K")
		congestion  = flag.Bool("congestion", false, "resolve collectives against link-level contention on every prediction")
		profile     = flag.String("profile", "llm", "estimator profile: llm | vision | all")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "prediction worker pool size")
		queue       = flag.Int("queue", 0, "predictions in flight before queue-full shedding (default 4*workers)")
		tenantRPS   = flag.Float64("tenant-rps", 0, "per-tenant sustained predictions/sec (0 disables throttling)")
		tenantBurst = flag.Int("tenant-burst", 32, "per-tenant burst allowance")
		capCache    = flag.Int("capture-cache", 256, "capture cache capacity (distinct topologies retained)")
		traceStore  = flag.Int("trace-store", 128, "trace store capacity (/v1/traces)")
		deadline    = flag.Duration("deadline", 30*time.Second, "default per-request deadline")
		maxDeadline = flag.Duration("max-deadline", 2*time.Minute, "largest per-request deadline honored")
		preload     = flag.String("preload", "", "comma-separated suites to warm at boot, as CLUSTERSPEC[/PROFILE] (e.g. 8xV100,8xA40/vision)")
		shedTarget  = flag.Duration("shed-target", 0, "queue-delay target for overload shedding (default 150ms)")
		shedIval    = flag.Duration("shed-interval", 0, "how long queue delay must exceed the target before shedding (default 1s)")
		brThreshold = flag.Int("breaker-threshold", 0, "consecutive dependency failures that trip a circuit breaker (default 5)")
		brProbe     = flag.Duration("breaker-probe", 0, "open-breaker probe interval (default 1s)")
		degradeSize = flag.Int("degrade-cache", 0, "stale-result cache capacity for degraded answers (default 256)")
		statePath   = flag.String("state", "", "trace-store snapshot path; restored at boot, written on capture/upload/drain")
		chaosPath   = flag.String("chaos", "", "chaos plan JSON file: seeded fault injection at the predictor boundary (testing only)")
		noWarm      = flag.Bool("no-warm", false, "skip estimator warm-up at boot (first learned request trains)")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
		trainWork   = flag.Int("train-workers", runtime.GOMAXPROCS(0), "worker pool for estimator training")
		version     = flag.Bool("version", false, "print build info and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	cluster, err := maya.ClusterByName(*clusterSpec)
	fatalIf(err)
	kind, err := serve.ParseProfile(*profile)
	fatalIf(err)

	var preloadList []string
	if *preload != "" {
		for _, e := range strings.Split(*preload, ",") {
			if e = strings.TrimSpace(e); e != "" {
				preloadList = append(preloadList, e)
			}
		}
	}

	var chaosPlan *serve.ChaosPlan
	if *chaosPath != "" {
		f, err := os.Open(*chaosPath)
		fatalIf(err)
		chaosPlan, err = serve.ReadChaosPlan(f)
		f.Close()
		fatalIf(err)
		fmt.Fprintf(os.Stderr, "maya-serve: CHAOS PLAN ACTIVE (%s: seed %d, %d events) — testing only\n",
			*chaosPath, chaosPlan.Seed, len(chaosPlan.Events))
	}

	srv, err := serve.New(serve.Config{
		Cluster:          cluster,
		Topology:         *topology,
		Congestion:       *congestion,
		Profile:          kind,
		Workers:          *workers,
		Queue:            *queue,
		TenantRate:       *tenantRPS,
		TenantBurst:      *tenantBurst,
		CaptureCacheSize: *capCache,
		TraceStoreSize:   *traceStore,
		DefaultDeadline:  *deadline,
		MaxDeadline:      *maxDeadline,
		Preload:          preloadList,
		ShedTarget:       *shedTarget,
		ShedInterval:     *shedIval,
		BreakerThreshold: *brThreshold,
		BreakerProbe:     *brProbe,
		DegradeCacheSize: *degradeSize,
		StatePath:        *statePath,
		Chaos:            chaosPlan,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	fatalIf(err)
	srv.Predictor().EstimatorCache().SetTrainWorkers(*trainWork)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if !*noWarm {
		fmt.Fprintf(os.Stderr, "maya-serve: warming estimator suites (%s/%s", cluster.Name, *profile)
		if len(preloadList) > 0 {
			fmt.Fprintf(os.Stderr, " + %s", strings.Join(preloadList, ", "))
		}
		fmt.Fprintln(os.Stderr, ")...")
		warmStart := time.Now()
		fatalIf(srv.Warm(ctx))
		fmt.Fprintf(os.Stderr, "maya-serve: warm in %v\n", time.Since(warmStart).Round(time.Millisecond))
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "maya-serve: %s; serving %s (%s) on %s with %d workers\n",
			buildinfo.Get(), cluster.Name, *profile, *addr, *workers)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatalIf(err)
	case <-ctx.Done():
		// Graceful drain: refuse new work, let balancers see
		// "draining", wait for in-flight requests, then close.
		fmt.Fprintln(os.Stderr, "maya-serve: draining...")
		srv.Drain()
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "maya-serve: drain timeout exceeded:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "maya-serve: drained cleanly")
	}
}

func fatalIf(err error) {
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "maya-serve: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "maya-serve:", err)
		os.Exit(1)
	}
}
