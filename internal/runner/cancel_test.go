package runner

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"heteropart/internal/apierr"
	"heteropart/internal/metrics"
	"heteropart/internal/telemetry"
)

// slowSpecs are chunk-heavy sweep points: each takes hundreds of
// milliseconds of wall-clock simulation, so a mid-flight cancel
// reliably catches them executing.
func slowSpecs() []Spec {
	return []Spec{
		{App: "STREAM-Loop", N: 1 << 20, Iters: 10, Chunks: 128},
		{App: "STREAM-Loop", N: 1 << 20, Iters: 10, Chunks: 160},
		{App: "STREAM-Loop", N: 1 << 20, Iters: 10, Chunks: 192},
		{App: "STREAM-Loop", N: 1 << 20, Iters: 10, Chunks: 224},
	}
}

// TestRunAllContextCancelMidFlight cancels a slow sweep mid-flight and
// checks the three contract points: the error wraps apierr.ErrCanceled,
// the abandon is prompt (phase boundaries are milliseconds apart, not
// the sweep's full duration), and the caches are left uncorrupted — a
// subsequent identical sweep on the same runner completes and is
// byte-identical to one on a fresh runner.
func TestRunAllContextCancelMidFlight(t *testing.T) {
	// Baseline: a clean sweep on a fresh runner, timed — it calibrates
	// the promptness bound below to this machine (and to -race).
	start := time.Now()
	fresh, err := New(Config{Workers: 2}).RunAll(slowSpecs())
	if err != nil {
		t.Fatalf("fresh runner: %v", err)
	}
	fullDur := time.Since(start)

	r := New(Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start = time.Now()
	_, err = r.RunAllContext(ctx, slowSpecs())
	abandoned := time.Since(start)
	if !errors.Is(err, apierr.ErrCanceled) {
		t.Fatalf("canceled sweep error = %v, want wrapping apierr.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled sweep error = %v, want wrapping context.Canceled", err)
	}
	// Abandon latency is bounded by one phase-boundary window of the
	// in-flight specs, which is well under the whole sweep's duration.
	if abandoned >= fullDur {
		t.Errorf("abandon took %v, full sweep takes %v; cancel did not cut the run short", abandoned, fullDur)
	}

	// Same runner, background context: the canceled entries must have
	// been evicted, so this executes cleanly rather than recalling an
	// abort.
	redo, err := r.RunAllContext(context.Background(), slowSpecs())
	if err != nil {
		t.Fatalf("rerun after cancel: %v", err)
	}
	for i := range redo {
		a, err := json.Marshal(redo[i].Outcome.Result)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(fresh[i].Outcome.Result)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("spec %d: rerun after cancel diverges from clean run", i)
		}
	}
}

// TestRunContextWaiterKeepsOwnContext: a caller that joined a running
// spec keeps waiting under its own context when the caller that
// started the run gives up. The starter gets the cancellation; the
// joiner gets the result.
func TestRunContextWaiterKeepsOwnContext(t *testing.T) {
	tr := telemetry.New()
	r := New(Config{Workers: 1, Spans: tr})
	spec := slowSpecs()[0]

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, err := r.RunContext(ctxA, spec)
		errA <- err
	}()
	// The first span is the run span of the first caller's execution.
	deadline := time.Now().Add(5 * time.Second)
	for tr.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	type result struct {
		res *Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := r.RunContext(context.Background(), spec)
		done <- result{res, err}
	}()
	// The join itself is not observable from outside; the pause gives
	// the second caller time to join the running spec before the first
	// gives up. The expected outcome does not depend on it: a caller
	// that arrives after the first one left starts the spec afresh.
	time.Sleep(20 * time.Millisecond)
	cancelA()

	if err := <-errA; !errors.Is(err, apierr.ErrCanceled) {
		t.Errorf("starter error = %v, want wrapping apierr.ErrCanceled", err)
	}
	got := <-done
	if got.err != nil {
		t.Fatalf("joiner with a background context failed: %v", got.err)
	}
	if got.res == nil || got.res.Outcome == nil {
		t.Fatalf("joiner got no outcome: %+v", got.res)
	}
}

// TestRunContextPreCanceled fails fast without touching a worker.
func TestRunContextPreCanceled(t *testing.T) {
	r := New(Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.RunContext(ctx, Spec{App: "BlackScholes", N: 16384})
	if !errors.Is(err, apierr.ErrCanceled) {
		t.Fatalf("pre-canceled run error = %v, want wrapping apierr.ErrCanceled", err)
	}
	// The cache must not remember the abort.
	res, err := r.Run(Spec{App: "BlackScholes", N: 16384})
	if err != nil || res.Outcome == nil {
		t.Fatalf("run after pre-canceled attempt: res=%v err=%v", res, err)
	}
}

// TestPlanContextDecideOnly checks the decide-only path shares the
// plan cache with executed specs.
func TestPlanContextDecideOnly(t *testing.T) {
	reg := metrics.NewRegistry()
	r := New(Config{Workers: 1, Metrics: reg})
	spec := Spec{App: "BlackScholes", N: 16384}
	pl, rep, err := r.PlanContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if pl == nil || rep == nil {
		t.Fatalf("PlanContext = (%v, %v), want plan + matchmake report", pl, rep)
	}
	if pl.Strategy != rep.Best {
		t.Errorf("plan strategy %q != report best %q", pl.Strategy, rep.Best)
	}
	// Executing the same spec must hit the plan cache seeded above.
	if _, err := r.Run(spec); err != nil {
		t.Fatal(err)
	}
	if hits := counterValue(t, reg, "plan_cache_hits_total"); hits != 1 {
		t.Errorf("plan_cache_hits_total = %v, want 1 (execution reused decide-only plan)", hits)
	}
}
