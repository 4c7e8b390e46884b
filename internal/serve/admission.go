package serve

import (
	"errors"
	"sync"
	"time"
)

// ErrThrottled marks a request rejected by its tenant's token bucket:
// the tenant is over its sustained rate and burst. The handler layer
// maps it to 429.
var ErrThrottled = errors.New("serve: tenant over rate limit")

// maxTenantBuckets bounds the tenant-bucket map; beyond it the
// longest-idle buckets are pruned. An idle bucket regenerates at full
// burst, which only ever favors the returning tenant.
const maxTenantBuckets = 4096

// Admission is the fairness check at the front door: a per-tenant
// token bucket, so one hot tenant cannot starve the rest. It is
// charged once per HTTP request, synchronously and without blocking;
// capacity — how many predictions may be in flight — is the gate's
// decision, not admission's.
type Admission struct {
	rate  float64 // tokens per second per tenant; <= 0 disables
	burst float64

	now func() time.Time // injectable clock for tests

	mu      sync.Mutex
	buckets map[string]*tokenBucket
}

// tokenBucket is one tenant's refillable allowance.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// NewAdmission builds the tenant check with the given per-tenant
// rate/burst. rate <= 0 disables throttling (every tenant passes).
func NewAdmission(rate float64, burst int) *Admission {
	if burst < 1 {
		burst = 1
	}
	return &Admission{
		rate:    rate,
		burst:   float64(burst),
		now:     time.Now,
		buckets: make(map[string]*tokenBucket),
	}
}

// Admit charges the tenant n tokens (a batch of k predictions costs
// k), returning ErrThrottled when the bucket cannot cover them.
func (a *Admission) Admit(tenant string, n int) error {
	if !a.allow(tenant, float64(max(n, 1))) {
		return ErrThrottled
	}
	return nil
}

// allow runs the tenant's token bucket: refill by elapsed time, then
// spend n if covered. A tenant over its allowance is refused but its
// bucket still refills — fairness is per unit time, not per attempt.
func (a *Admission) allow(tenant string, n float64) bool {
	if a.rate <= 0 {
		return true
	}
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	b, ok := a.buckets[tenant]
	if !ok {
		if len(a.buckets) >= maxTenantBuckets {
			a.pruneLocked(now)
		}
		b = &tokenBucket{tokens: a.burst, last: now}
		a.buckets[tenant] = b
	}
	b.tokens = min(a.burst, b.tokens+a.rate*now.Sub(b.last).Seconds())
	b.last = now
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// pruneLocked drops buckets idle long enough to have refilled to full
// burst — dropping them is behavior-neutral. Callers hold a.mu.
func (a *Admission) pruneLocked(now time.Time) {
	idle := time.Duration(float64(time.Second) * a.burst / a.rate)
	for t, b := range a.buckets {
		if now.Sub(b.last) > idle {
			delete(a.buckets, t)
		}
	}
}
