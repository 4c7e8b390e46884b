package serve

import (
	"errors"
	"testing"
	"time"
)

// fakeClock steps time manually for deterministic bucket tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time                   { return c.t }
func (c *fakeClock) advance(d time.Duration)          { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                        { return &fakeClock{t: time.Unix(1000, 0)} }
func withClock(a *Admission, c *fakeClock) *Admission { a.now = c.now; return a }

func TestAdmissionTenantTokenBucket(t *testing.T) {
	clk := newFakeClock()
	// 2 tokens/sec, burst 4.
	a := withClock(NewAdmission(2, 4), clk)

	// The burst admits immediately; the fifth request is throttled.
	for i := 0; i < 4; i++ {
		if err := a.Admit("alice", 1); err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
	}
	if err := a.Admit("alice", 1); !errors.Is(err, ErrThrottled) {
		t.Fatalf("over-burst admit: err = %v, want ErrThrottled", err)
	}

	// Fairness: a different tenant has its own allowance.
	if err := a.Admit("bob", 1); err != nil {
		t.Fatalf("other tenant throttled by alice's bucket: %v", err)
	}

	// Refill: 1s at 2 tokens/sec buys two more admissions.
	clk.advance(time.Second)
	for i := 0; i < 2; i++ {
		if err := a.Admit("alice", 1); err != nil {
			t.Fatalf("post-refill admit %d: %v", i, err)
		}
	}
	if err := a.Admit("alice", 1); !errors.Is(err, ErrThrottled) {
		t.Fatalf("refill overshot: err = %v, want ErrThrottled", err)
	}

	// Batch charging: a batch of 3 needs 3 tokens at once.
	clk.advance(time.Second) // 2 tokens
	if err := a.Admit("alice", 3); !errors.Is(err, ErrThrottled) {
		t.Fatalf("batch of 3 with 2 tokens: err = %v, want ErrThrottled", err)
	}
	clk.advance(time.Second) // 4 tokens (capped at burst)
	if err := a.Admit("alice", 3); err != nil {
		t.Fatalf("batch of 3 with 4 tokens: %v", err)
	}
}

func TestAdmissionDisabledThrottling(t *testing.T) {
	a := NewAdmission(0, 1)
	for i := 0; i < 100; i++ {
		if err := a.Admit("hammer", 1); err != nil {
			t.Fatalf("admit %d with throttling disabled: %v", i, err)
		}
	}
}

func TestAdmissionBucketPruning(t *testing.T) {
	clk := newFakeClock()
	a := withClock(NewAdmission(1, 1), clk)

	// Fill the map to the bound with distinct tenants.
	for i := 0; i < maxTenantBuckets; i++ {
		a.allow(tenantName(i), 1)
	}
	if got := len(a.buckets); got != maxTenantBuckets {
		t.Fatalf("bucket count = %d, want %d", got, maxTenantBuckets)
	}
	// After everyone has fully refilled, a new tenant triggers the
	// prune and the map collapses.
	clk.advance(time.Hour)
	a.allow("fresh", 1)
	if got := len(a.buckets); got > 2 {
		t.Fatalf("bucket count after prune = %d, want <= 2", got)
	}
}

func tenantName(i int) string {
	return "tenant-" + string(rune('a'+i%26)) + "-" + time.Duration(i).String()
}
