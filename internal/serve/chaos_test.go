package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestChaosPlanValidate(t *testing.T) {
	bad := []ChaosPlan{
		{Events: []ChaosEvent{{Kind: "meteor"}}},
		{Events: []ChaosEvent{{Kind: ChaosError, Target: "billing"}}},
		{Events: []ChaosEvent{{Kind: ChaosError, FromMS: -1}}},
		{Events: []ChaosEvent{{Kind: ChaosError, FromMS: 100, UntilMS: 50}}},
		{Events: []ChaosEvent{{Kind: ChaosLatency}}}, // latency needs latency_ms
		{Events: []ChaosEvent{{Kind: ChaosError, Fraction: 1.5}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated: %+v", i, p)
		}
	}
	good := ChaosPlan{Seed: 42, Events: []ChaosEvent{
		{Kind: ChaosOutage, Target: ChaosTargetPredict, FromMS: 1000, UntilMS: 3000},
		{Kind: ChaosLatency, LatencyMS: 50, Fraction: 0.5},
		{Kind: ChaosPanic, Target: ChaosTargetCapture, FromMS: 500},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestReadChaosPlan(t *testing.T) {
	p, err := ReadChaosPlan(strings.NewReader(
		`{"seed": 7, "events": [{"kind": "outage", "from_ms": 100, "until_ms": 200}]}`))
	if err != nil {
		t.Fatalf("valid plan: %v", err)
	}
	if p.Seed != 7 || len(p.Events) != 1 || p.Events[0].Kind != ChaosOutage {
		t.Fatalf("parsed plan: %+v", p)
	}
	// Unknown fields are a typo'd plan, not a silently ignored one.
	if _, err := ReadChaosPlan(strings.NewReader(`{"seed": 7, "evnts": []}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ReadChaosPlan(strings.NewReader(`{"events": [{"kind": "meteor"}]}`)); err == nil {
		t.Error("invalid plan accepted")
	}
}

// The fraction gate must be a pure function of (seed, event, call):
// the same plan hits the same calls on every replay, and a different
// seed selects a different subset.
func TestChaosEffectDeterminism(t *testing.T) {
	mkPlan := func(seed uint64) *ChaosPlan {
		return &ChaosPlan{Seed: seed, Events: []ChaosEvent{
			{Kind: ChaosError, FromMS: 0, UntilMS: 0, Fraction: 0.3},
		}}
	}
	hits := func(p *ChaosPlan) []bool {
		out := make([]bool, 200)
		for call := uint64(1); call <= 200; call++ {
			out[call-1] = p.effect(ChaosTargetPredict, time.Second, call) != nil
		}
		return out
	}
	a, b := hits(mkPlan(1)), hits(mkPlan(1))
	n := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i+1)
		}
		if a[i] {
			n++
		}
	}
	if n == 0 || n == len(a) {
		t.Fatalf("fraction 0.3 hit %d/%d calls", n, len(a))
	}
	c := hits(mkPlan(2))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds selected the identical subset")
	}

	// Windows and targets gate the effect.
	p := &ChaosPlan{Events: []ChaosEvent{
		{Kind: ChaosOutage, FromMS: 1000, UntilMS: 2000},
	}}
	if p.effect(ChaosTargetPredict, 500*time.Millisecond, 1) != nil {
		t.Error("effect fired before its window")
	}
	if p.effect(ChaosTargetPredict, 1500*time.Millisecond, 1) == nil {
		t.Error("effect missing inside its window")
	}
	if p.effect(ChaosTargetPredict, 2500*time.Millisecond, 1) != nil {
		t.Error("effect fired after its window")
	}
	if p.effect(ChaosTargetCapture, 1500*time.Millisecond, 1) != nil {
		t.Error("predict event hit the capture target")
	}
}

// TestChaosDegradeAndRecover walks the full incident arc over HTTP:
// healthy traffic populates the stale cache, an injected outage trips
// the predictor breaker, requests degrade to stale 200s instead of
// erroring, and once the window closes a probe heals the circuit and
// fresh predictions resume. Both clocks — the chaos window clock and
// the breaker's probe clock — are injected, so the test steps through
// the incident deterministically instead of sleeping through it.
func TestChaosDegradeAndRecover(t *testing.T) {
	plan := &ChaosPlan{Events: []ChaosEvent{
		{Kind: ChaosOutage, Target: ChaosTargetPredict, FromMS: 3_600_000, UntilMS: 7_200_000},
	}}
	s, ts := newTestServer(t, func(c *Config) {
		c.Chaos = plan
		c.BreakerThreshold = 2
	})
	var elapsed time.Duration // the virtual chaos clock
	s.chaos.elapsed = func() time.Duration { return elapsed }
	clk := newBreakerClock()
	s.gate.pbreaker.now = clk.now

	// Phase 1 — healthy: a fresh prediction lands in the stale cache.
	resp, raw := postJSON(t, ts.URL+"/v1/predict", smallSpec(), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy predict: %d (%s)", resp.StatusCode, raw)
	}
	if got := s.gate.degrade.len(); got != 1 {
		t.Fatalf("degrade cache entries = %d, want 1", got)
	}

	// Phase 2 — inside the outage window: failures trip the breaker.
	elapsed = 90 * time.Minute
	for i := 0; i < 2; i++ {
		resp, raw := postJSON(t, ts.URL+"/v1/predict", smallSpec(), nil)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("outage predict %d: %d (%s)", i, resp.StatusCode, raw)
		}
	}
	if got := s.gate.pbreaker.State(); got != BreakerOpen {
		t.Fatalf("breaker state after outage failures = %v, want open", got)
	}

	// Breaker open (probe clock frozen, so no probe sneaks through):
	// the cached identity degrades to a stale 200; an uncached identity
	// gets a clean 503.
	resp, raw = postJSON(t, ts.URL+"/v1/predict", smallSpec(), nil)
	var res PredictResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !res.Degraded || res.Report == nil {
		t.Fatalf("degraded predict: status %d, degraded %v (%s)", resp.StatusCode, res.Degraded, raw)
	}
	if res.StaleMS < 0 {
		t.Fatalf("degraded result with negative staleness: %+v", res)
	}
	other := smallSpec()
	other.MicroBatches = 4 // never computed: no stale cover
	oresp, oraw := postJSON(t, ts.URL+"/v1/predict", other, nil)
	if oresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("uncached predict under open breaker: %d (%s)", oresp.StatusCode, oraw)
	}
	if got := s.metrics.Degraded.Load(); got != 1 {
		t.Fatalf("degraded counter = %d, want 1", got)
	}

	// Phase 3 — window closed, probe interval elapsed: the next
	// request is the probe, it succeeds, the circuit closes, fresh
	// predictions resume.
	elapsed = 3 * time.Hour
	clk.advance(2 * time.Second)
	resp, raw = postJSON(t, ts.URL+"/v1/predict", smallSpec(), nil)
	var fresh PredictResult
	if err := json.Unmarshal(raw, &fresh); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || fresh.Degraded {
		t.Fatalf("post-recovery predict: status %d, degraded %v (%s)", resp.StatusCode, fresh.Degraded, raw)
	}
	if got := s.gate.pbreaker.State(); got != BreakerClosed {
		t.Fatalf("breaker state after recovery = %v, want closed", got)
	}
	if got := s.gate.pbreaker.Recoveries(); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
}

// An injected panic must surface as a recovered 500, not a dead
// process — chaos exercises the service's real recovery layers.
func TestChaosPanicRecovered(t *testing.T) {
	plan := &ChaosPlan{Events: []ChaosEvent{
		{Kind: ChaosPanic, Target: ChaosTargetPredict},
	}}
	s, ts := newTestServer(t, func(c *Config) { c.Chaos = plan })
	resp, raw := postJSON(t, ts.URL+"/v1/predict", smallSpec(), nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (%s)", resp.StatusCode, raw)
	}
	if got := s.metrics.Panics.Load(); got != 1 {
		t.Errorf("panics recovered = %d, want 1", got)
	}
	if got := s.chaos.injected.Load(); got != 1 {
		t.Errorf("injected faults = %d, want 1", got)
	}
}
