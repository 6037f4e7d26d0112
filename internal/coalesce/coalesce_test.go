package coalesce

import (
	"context"
	"errors"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heteropart/internal/apierr"
	"heteropart/internal/metrics"
)

// waitWaiters blocks until key's running call has n waiters.
func waitWaiters[V any](t *testing.T, g *Group[V], key string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		c, ok := g.calls[key]
		got := 0
		if ok {
			got = c.waiters
		}
		g.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("key %q has %d waiters, want %d", key, got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// keys lists the group's entries, sorted.
func keys[V any](g *Group[V]) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var ks []string
	for k := range g.calls {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestConcurrentCallsCoalesce: N concurrent callers of one key run fn
// once, all read the same value, and N-1 report joined and count as
// hits.
func TestConcurrentCallsCoalesce(t *testing.T) {
	var hits, misses metrics.Counter
	g := New[*int](context.Background(), 0, nil, &hits, &misses)
	const n = 16
	var runs atomic.Int32
	release := make(chan struct{})
	fn := func(context.Context) (*int, error) {
		runs.Add(1)
		<-release
		v := 42
		return &v, nil
	}
	vals := make([]*int, n)
	joined := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, j, err := g.Do(context.Background(), "k", fn)
			if err != nil {
				t.Error(err)
			}
			vals[i], joined[i] = v, j
		}(i)
	}
	waitWaiters(t, g, "k", n)
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	nj := 0
	for i := range vals {
		if vals[i] != vals[0] {
			t.Fatalf("caller %d read a different value", i)
		}
		if joined[i] {
			nj++
		}
	}
	if nj != n-1 {
		t.Errorf("%d callers report joined, want %d", nj, n-1)
	}
	if hits.Value() != n-1 || misses.Value() != 1 {
		t.Errorf("hits, misses = %d, %d, want %d, 1", hits.Value(), misses.Value(), n-1)
	}
}

// TestCompletedKeyIsRecalled: a finished success is served from memory
// without running fn again.
func TestCompletedKeyIsRecalled(t *testing.T) {
	g := New[int](context.Background(), 0, nil, nil, nil)
	var runs int
	fn := func(context.Context) (int, error) { runs++; return 7, nil }
	if v, joined, err := g.Do(context.Background(), "k", fn); v != 7 || joined || err != nil {
		t.Fatalf("first Do = (%d, %t, %v), want (7, false, nil)", v, joined, err)
	}
	if v, joined, err := g.Do(context.Background(), "k", fn); v != 7 || !joined || err != nil {
		t.Fatalf("second Do = (%d, %t, %v), want (7, true, nil)", v, joined, err)
	}
	if runs != 1 {
		t.Errorf("fn ran %d times, want 1", runs)
	}
}

// TestFailuresAreForgotten: an error, or a panic turned into one, is
// not memoized; the next Do runs fn again.
func TestFailuresAreForgotten(t *testing.T) {
	boom := errors.New("boom")
	cases := map[string]func(context.Context) (int, error){
		"error": func(context.Context) (int, error) { return 0, boom },
		"panic": func(context.Context) (int, error) { panic("bang") },
	}
	for name, fail := range cases {
		t.Run(name, func(t *testing.T) {
			g := New[int](context.Background(), 0, nil, nil, nil)
			_, joined, err := g.Do(context.Background(), "k", fail)
			if err == nil || joined {
				t.Fatalf("failing Do = (%t, %v), want a fresh call's error", joined, err)
			}
			if name == "panic" && !errors.Is(err, ErrPanicked) {
				t.Errorf("panic error %v does not wrap ErrPanicked", err)
			}
			if name == "error" && !errors.Is(err, boom) {
				t.Errorf("error %v does not wrap fn's error", err)
			}
			if n := g.Len(); n != 0 {
				t.Fatalf("failure left %d entries, want 0", n)
			}
			v, joined, err := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 3, nil })
			if v != 3 || joined || err != nil {
				t.Fatalf("retry = (%d, %t, %v), want a new call returning 3", v, joined, err)
			}
		})
	}
}

// TestLastWaiterCancelsAndFreesKey: when the only waiter leaves, fn's
// context is canceled and the key is free before Do returns, so the
// next identical call starts afresh.
func TestLastWaiterCancelsAndFreesKey(t *testing.T) {
	g := New[int](context.Background(), 0, nil, nil, nil)
	canceled := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func(ctx context.Context) (int, error) {
			<-ctx.Done()
			close(canceled)
			return 0, ctx.Err()
		})
		res <- err
	}()
	waitWaiters(t, g, "k", 1)
	cancel()
	if err := <-res; !errors.Is(err, apierr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned Do error = %v, want ErrCanceled and context.Canceled", err)
	}
	if n := g.Len(); n != 0 {
		t.Fatalf("abandoned call left %d entries, want 0", n)
	}
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("fn's context was not canceled")
	}
	v, joined, err := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 5, nil })
	if v != 5 || joined || err != nil {
		t.Fatalf("Do after abandon = (%d, %t, %v), want a new call returning 5", v, joined, err)
	}
}

// TestWaiterOwnDeadline: a waiter whose context expires gets its own
// error; the call keeps running for the other waiter, which gets the
// value.
func TestWaiterOwnDeadline(t *testing.T) {
	g := New[int](context.Background(), 0, nil, nil, nil)
	release := make(chan struct{})
	var fnErr atomic.Value
	fn := func(ctx context.Context) (int, error) {
		<-release
		if err := ctx.Err(); err != nil {
			fnErr.Store(err)
		}
		return 9, nil
	}
	type result struct {
		v   int
		err error
	}
	stay := make(chan result, 1)
	go func() {
		v, _, err := g.Do(context.Background(), "k", fn)
		stay <- result{v, err}
	}()
	waitWaiters(t, g, "k", 1)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, joined, err := g.Do(ctx, "k", fn)
	if !joined || !errors.Is(err, apierr.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired waiter = (%t, %v), want joined with ErrCanceled and DeadlineExceeded", joined, err)
	}
	close(release)
	if got := <-stay; got.v != 9 || got.err != nil {
		t.Fatalf("remaining waiter = (%d, %v), want (9, nil)", got.v, got.err)
	}
	if err := fnErr.Load(); err != nil {
		t.Errorf("fn's context was canceled (%v) while a waiter remained", err)
	}
}

// TestEvictionOldestFinishedFirst: beyond the bound, new calls evict
// finished entries in creation order and never a running one.
func TestEvictionOldestFinishedFirst(t *testing.T) {
	g := New[string](context.Background(), 2, nil, nil, nil)
	done := func(key string) {
		t.Helper()
		if _, _, err := g.Do(context.Background(), key, func(context.Context) (string, error) { return key, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// start begins a call for key that runs until release is closed;
	// the returned channel closes once its Do has returned.
	start := func(key string, release chan struct{}) chan struct{} {
		t.Helper()
		returned := make(chan struct{})
		go func() {
			defer close(returned)
			if _, _, err := g.Do(context.Background(), key, func(context.Context) (string, error) { <-release; return key, nil }); err != nil {
				t.Error(err)
			}
		}()
		waitWaiters(t, g, key, 1)
		return returned
	}
	want := func(ks ...string) {
		t.Helper()
		if got := keys(g); !slices.Equal(got, ks) {
			t.Fatalf("entries = %v, want %v", got, ks)
		}
	}

	relC, relD, relE := make(chan struct{}), make(chan struct{}), make(chan struct{})
	done("a")
	done("b")
	retC := start("c", relC) // evicts a, the oldest finished
	want("b", "c")
	retD := start("d", relD) // evicts b
	want("c", "d")
	retE := start("e", relE) // c and d are running: nothing to evict
	want("c", "d", "e")
	close(relC)
	<-retC
	done("f") // evicts c, now the oldest finished; d and e still run
	want("d", "e", "f")
	close(relD)
	close(relE)
	<-retD
	<-retE
}

// TestAdmitOnlyNewCalls: admission is consulted once per new call and
// never for a join or a recall; a refused call leaves no entry.
func TestAdmitOnlyNewCalls(t *testing.T) {
	refuse := errors.New("full")
	var asked atomic.Int32
	var full atomic.Bool
	g := New[int](context.Background(), 0, func() error {
		asked.Add(1)
		if full.Load() {
			return refuse
		}
		return nil
	}, nil, nil)
	release := make(chan struct{})
	type result struct {
		v      int
		joined bool
		err    error
	}
	do := func(out chan<- result) {
		v, joined, err := g.Do(context.Background(), "k", func(context.Context) (int, error) { <-release; return 1, nil })
		out <- result{v, joined, err}
	}
	first, second := make(chan result, 1), make(chan result, 1)
	go do(first)
	waitWaiters(t, g, "k", 1)
	full.Store(true)

	if _, joined, err := g.Do(context.Background(), "other", func(context.Context) (int, error) { return 2, nil }); err != refuse || joined {
		t.Fatalf("refused Do = (%t, %v), want (false, %v)", joined, err, refuse)
	}
	go do(second)
	waitWaiters(t, g, "k", 2)
	close(release)
	if r := <-first; r.v != 1 || r.joined || r.err != nil {
		t.Fatalf("starter = %+v, want a new call returning 1", r)
	}
	if r := <-second; r.v != 1 || !r.joined || r.err != nil {
		t.Fatalf("join while full = %+v, want a join returning 1", r)
	}
	if v, joined, err := g.Do(context.Background(), "k", nil); v != 1 || !joined || err != nil {
		t.Fatalf("recall while full = (%d, %t, %v), want (1, true, nil)", v, joined, err)
	}
	if got := asked.Load(); got != 2 {
		t.Errorf("admit consulted %d times, want 2 (one start, one refusal)", got)
	}
	if got := keys(g); !slices.Equal(got, []string{"k"}) {
		t.Errorf("entries = %v, want [k]", got)
	}
}
