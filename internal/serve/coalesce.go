package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// coalescer merges concurrent identical predictions into one
// execution. It is single-flight, not a cache: an entry lives exactly
// as long as its computation, so the memory cost is bounded by
// concurrency and results stay fresh (the durable reuse layers — the
// capture cache and capture-attached estimate plans — sit below).
//
// The capture cache already guarantees one *capture* per key; the
// coalescer extends that to the whole prediction, so N identical
// in-flight requests also share one annotate + simulate.
type coalescer struct {
	mu       sync.Mutex
	inflight map[string]*flight

	// joins counts callers that attached to an in-flight computation
	// instead of executing their own.
	joins atomic.Int64
}

// flight is one in-flight computation and its eventual outcome.
type flight struct {
	ready chan struct{} // closed when done
	out   *predictOutcome
	err   error
}

func newCoalescer() *coalescer {
	return &coalescer{inflight: make(map[string]*flight)}
}

// do returns fn's outcome for key, executing it only if no identical
// call is in flight; otherwise it waits for the leader, honoring its
// own ctx. shared reports whether this caller joined another's
// execution. Following the repo's single-flight idiom, a follower
// whose leader was cancelled retries while its own ctx is live (and
// likely becomes the leader).
func (c *coalescer) do(ctx context.Context, key string, fn func() (*predictOutcome, error)) (out *predictOutcome, shared bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}

		c.mu.Lock()
		if f, ok := c.inflight[key]; ok {
			c.joins.Add(1)
			c.mu.Unlock()
			select {
			case <-f.ready:
				if f.err != nil && isCtxErr(f.err) && ctx.Err() == nil {
					continue
				}
				return f.out, true, f.err
			case <-ctx.Done():
				return nil, true, ctx.Err()
			}
		}
		f := &flight{ready: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		f.out, f.err = fn()

		c.mu.Lock()
		if c.inflight[key] == f {
			delete(c.inflight, key)
		}
		c.mu.Unlock()
		close(f.ready)
		return f.out, false, f.err
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
