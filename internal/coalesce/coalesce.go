// Package coalesce is a keyed single-flight group with a memo. The
// runner's result and plan caches and the service's flights are all
// instances of Group, so identical evaluations are coalesced in one
// place under one set of rules (DESIGN.md §9):
//
//   - each call runs in its own goroutine, under a context derived from
//     the group's base context, never from a caller's;
//   - a caller's context bounds only that caller's wait;
//   - the last waiter to leave a running call cancels it and frees its
//     key at once, so the next identical request starts afresh;
//   - successful results are memoized; failures, including a recovered
//     panic, are forgotten;
//   - with a bound, a new call evicts the oldest finished entries in
//     creation order until the group is back within it, never a
//     running call.
package coalesce

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"heteropart/internal/apierr"
	"heteropart/internal/metrics"
)

// ErrPanicked marks the error of a call whose function panicked.
var ErrPanicked = errors.New("recovered panic")

// Group coalesces calls by key. Build one with New.
type Group[V any] struct {
	base         context.Context
	max          int
	admit        func() error
	hits, misses *metrics.Counter

	mu    sync.Mutex
	calls map[string]*call[V]
	order []*call[V] // entries in creation order; only when bounded
}

// call is one entry: running until finished, then a memoized success.
// val and err are written once, before finished is set and done closes.
type call[V any] struct {
	key    string
	done   chan struct{}
	val    V
	err    error
	cancel context.CancelFunc
	// waiters and finished are guarded by Group.mu.
	waiters  int
	finished bool
}

// New builds a group whose calls run under contexts derived from base;
// canceling base cancels every running and later call. max bounds the
// entries (0 = unbounded). admit, when non-nil, is consulted before a
// new call starts, never for a join or a recall, and a non-nil error
// refuses the call; it runs under the group's lock, so it must not
// block or call into the group. hits counts the calls to Do that joined
// or recalled an entry, misses those that started one.
func New[V any](base context.Context, max int, admit func() error, hits, misses *metrics.Counter) *Group[V] {
	return &Group[V]{base: base, max: max, admit: admit, hits: hits, misses: misses,
		calls: make(map[string]*call[V])}
}

// Do returns key's value: recalled from memory, joined from the running
// call, or computed by a new call of fn. joined reports a recall or a
// join. A refusal by admit is returned as is. When ctx ends first, Do
// returns an error wrapping apierr.ErrCanceled and ctx's own error.
func (g *Group[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, error)) (v V, joined bool, err error) {
	g.mu.Lock()
	c, joined := g.calls[key]
	switch {
	case joined && c.finished:
		g.mu.Unlock()
		g.hits.Inc()
		return c.val, true, c.err
	case joined:
		c.waiters++
		g.hits.Inc()
	default:
		if g.admit != nil {
			if err := g.admit(); err != nil {
				g.mu.Unlock()
				return v, false, err
			}
		}
		g.misses.Inc()
		c = &call[V]{key: key, done: make(chan struct{}), waiters: 1}
		var cctx context.Context
		cctx, c.cancel = context.WithCancel(g.base)
		g.calls[key] = c
		if g.max > 0 {
			g.order = append(g.order, c)
			g.evict()
		}
		go g.run(cctx, c, fn)
	}
	g.mu.Unlock()

	select {
	case <-c.done:
		return c.val, joined, c.err
	case <-ctx.Done():
	}
	g.mu.Lock()
	c.waiters--
	if c.waiters == 0 && !c.finished {
		c.cancel()
		g.drop(c)
	}
	g.mu.Unlock()
	return v, joined, apierr.Canceled(ctx.Err())
}

// run executes one call and settles its entry: kept on success,
// dropped on failure.
func (g *Group[V]) run(ctx context.Context, c *call[V], fn func(context.Context) (V, error)) {
	defer close(c.done)
	defer c.cancel()
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("coalesce: %w: %v", ErrPanicked, r)
		}
		g.mu.Lock()
		c.finished = true
		if c.err != nil {
			g.drop(c)
		}
		g.mu.Unlock()
	}()
	c.val, c.err = fn(ctx)
}

// drop removes c's entry unless its key already belongs to a newer
// call. Caller holds g.mu.
func (g *Group[V]) drop(c *call[V]) {
	if g.calls[c.key] != c {
		return
	}
	delete(g.calls, c.key)
	if i := slices.Index(g.order, c); i >= 0 {
		g.order = slices.Delete(g.order, i, i+1)
	}
}

// evict removes the oldest finished entries while the group holds more
// than max. Caller holds g.mu.
func (g *Group[V]) evict() {
	for i := 0; len(g.calls) > g.max && i < len(g.order); {
		if c := g.order[i]; c.finished {
			delete(g.calls, c.key)
			g.order = slices.Delete(g.order, i, i+1)
		} else {
			i++
		}
	}
}

// Len reports the number of entries, running and memoized.
func (g *Group[V]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}
