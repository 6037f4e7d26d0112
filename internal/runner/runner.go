// Package runner is the sharded sweep executor: it fans independent
// simulation runs out over a bounded worker pool and reassembles the
// results in input order, so everything rendered from a sweep (tables,
// EXPERIMENTS.md, CSV) is byte-identical to a sequential run.
//
// Each run is one self-contained virtual-time world — its own problem
// build (buffers, directory), platform view, scheduler, simulation
// engine, trace and metrics registry — so runs never share mutable
// state and the whole pool is race-clean by construction (enforced by
// `make race`).
//
// A content-addressed result cache keyed by the canonical Spec
// encoding (Spec.Key) lets repeated sweeps — auto-tuning, ratio
// sweeps, report regeneration — skip already-measured points. It is a
// coalesce.Group: concurrent requests for the same key coalesce onto
// one execution and all receive the identical *Result, which also
// keeps the hit/miss counters deterministic regardless of the worker
// count. Successful results are memoized; failures are not.
//
// Decisions are cached separately from results: a plan cache keyed by
// Spec.PlanKey — the decision inputs only, excluding compute/trace/
// metrics settings — holds each strategy's decided ExecutionPlan, so
// sweep points sharing an (app, platform, strategy, size) prefix skip
// the repeated Glinda profiling and go straight to execution. Plans
// are immutable and materialize fresh task instances per run, so one
// cached plan safely backs concurrent executions. The plan cache is a
// second coalesce.Group under the same rules.
//
// The runner is the one code path that turns a spec into an executed
// run: sweeps, hetsim's single runs, the matchmaker CLI, the service's
// endpoints, the calibration loop and Table I's ranking validation
// (ValidateContext) all go through it. Every execution is one bounded
// device-loss recovery (strategy.ExecuteRecover), so a clean run and a
// faulted one differ only in what the schedule injects. ExecuteContext
// replays a caller's plan on the same path, uncached and without
// replanning.
package runner

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"heteropart/internal/analyzer"
	"heteropart/internal/apierr"
	"heteropart/internal/apps"
	"heteropart/internal/coalesce"
	"heteropart/internal/device"
	"heteropart/internal/metrics"
	"heteropart/internal/plan"
	"heteropart/internal/sim"
	"heteropart/internal/strategy"
	"heteropart/internal/telemetry"
)

// Result is the measured execution of one Spec.
type Result struct {
	Spec    Spec
	Outcome *strategy.Outcome
	// Report is the analyzer's decision; only set when the spec left
	// the strategy to the matchmaker (Spec.Strategy == "").
	Report *analyzer.Report
	// Plan is the decided ExecutionPlan the outcome executed (possibly
	// recalled from the plan cache). Plans are immutable; callers may
	// serialize or diff it freely.
	Plan *plan.ExecutionPlan
	// Metrics is the run's private registry (Spec.WithMetrics).
	Metrics *metrics.Registry
	// Verify checks computed results against the sequential reference;
	// non-nil only for compute-mode runs.
	Verify func() error
}

// Config parameterizes a Runner.
type Config struct {
	// Workers bounds the number of concurrently executing runs;
	// <= 1 means sequential.
	Workers int
	// DisableCache turns the result cache off (every spec executes).
	DisableCache bool
	// Metrics, when non-nil, receives the runner's own telemetry:
	// runner_runs_total, runner_cache_hits_total,
	// runner_cache_misses_total, and per-worker progress counters
	// runner_worker_runs_total{worker}. The per-worker series depend on
	// host scheduling and are not deterministic across worker counts
	// (see DESIGN.md §9).
	Metrics *metrics.Registry
	// Spans, when non-nil, receives hierarchical telemetry spans:
	// one sweep span per RunAll, one run span per executed spec, and
	// the strategy/runtime spans beneath them. Cache hits emit no run
	// span (the cached execution already did).
	Spans *telemetry.Tracer
}

// Runner executes Specs over a bounded worker pool with an optional
// content-addressed result cache. The zero value is not usable; call
// New.
type Runner struct {
	workers int
	// sem bounds executing runs; each token doubles as a worker
	// identity for per-worker progress telemetry. Cache waiters do not
	// hold tokens, so a full pool of waiters cannot starve the one
	// execution they wait on.
	sem chan int

	results *coalesce.Group[*Result]             // nil when caching is off
	plans   *coalesce.Group[*plan.ExecutionPlan] // nil when caching is off

	runs, hits, misses   *metrics.Counter
	planHits, planMisses *metrics.Counter
	workerRuns           []*metrics.Counter

	// spans is the runner's tracer; a sweep-span parent is threaded per
	// call (the runner is shared across concurrent sweeps, so it never
	// lives on the struct).
	spans *telemetry.Tracer
}

// New builds a runner.
func New(cfg Config) *Runner {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	r := &Runner{
		workers: cfg.Workers,
		sem:     make(chan int, cfg.Workers),
		spans:   cfg.Spans,
	}
	for i := 0; i < cfg.Workers; i++ {
		r.sem <- i
	}
	if m := cfg.Metrics; m != nil {
		r.runs = m.Counter("runner_runs_total", "simulation runs executed by the sweep pool")
		r.hits = m.Counter("runner_cache_hits_total", "sweep points served from the result cache")
		r.misses = m.Counter("runner_cache_misses_total", "sweep points that had to execute")
		r.planHits = m.Counter("plan_cache_hits_total", "executions that reused a decided plan")
		r.planMisses = m.Counter("plan_cache_misses_total", "executions that had to decide a plan")
		r.workerRuns = make([]*metrics.Counter, cfg.Workers)
		for i := range r.workerRuns {
			r.workerRuns[i] = m.Counter(
				metrics.Label("runner_worker_runs_total", "worker", strconv.Itoa(i)),
				"runs completed per pool worker (not deterministic across worker counts)")
		}
	}
	if !cfg.DisableCache {
		r.results = coalesce.New[*Result](context.Background(), 0, nil, r.hits, r.misses)
		r.plans = coalesce.New[*plan.ExecutionPlan](context.Background(), 0, nil, r.planHits, r.planMisses)
	}
	return r
}

// Workers reports the pool width.
func (r *Runner) Workers() int { return r.workers }

// Run executes (or recalls) one spec.
func (r *Runner) Run(spec Spec) (*Result, error) {
	return r.RunContext(context.Background(), spec)
}

// RunContext is Run under a cancellation context. The context bounds
// worker acquisition, this caller's wait and the simulation's phase
// boundaries; a caller that gives up gets an error wrapping
// apierr.ErrCanceled. Identical specs coalesce onto one execution that
// runs under its own context: one caller giving up does not cancel it
// for the others, and the execution is abandoned only when every caller
// waiting on it has given up — its key is then free, so a later
// identical spec re-executes cleanly instead of recalling the abort.
// The run span attaches under the span parent ctx carries
// (telemetry.WithParent), if any.
func (r *Runner) RunContext(ctx context.Context, spec Spec) (*Result, error) {
	return r.run(ctx, spec, telemetry.ParentFrom(ctx))
}

// run is RunContext with a sweep-span parent threaded through.
func (r *Runner) run(ctx context.Context, spec Spec, parent telemetry.SpanID) (*Result, error) {
	if err := apierr.FromContext(ctx); err != nil {
		return nil, err
	}
	if r.results == nil {
		return r.execute(ctx, spec, nil, parent)
	}
	res, _, err := r.results.Do(ctx, spec.Key(), func(ctx context.Context) (*Result, error) {
		return r.execute(ctx, spec, nil, parent)
	})
	return res, err
}

// ExecuteContext replays a caller's decided plan as spec's run, through
// the same worker slot, run span, problem build and options as
// RunContext. The spec supplies what the plan does not pin: the
// problem variant, the platform, the observation settings and the
// fault schedule; its Strategy is taken from the plan. A replay is
// neither cached nor coalesced, and it never replans: a device loss
// fails it with an error wrapping apierr.ErrDeviceLost.
func (r *Runner) ExecuteContext(ctx context.Context, spec Spec, pl *plan.ExecutionPlan) (*Result, error) {
	if err := apierr.FromContext(ctx); err != nil {
		return nil, err
	}
	if pl == nil {
		return nil, fmt.Errorf("runner: nil plan: %w", apierr.ErrPlanInvalid)
	}
	spec.Strategy = pl.Strategy
	return r.execute(ctx, spec, pl, telemetry.ParentFrom(ctx))
}

// RunAll executes every spec, fanning out over the worker pool, and
// returns the results in input order. On failure the first error (by
// input position) is returned; the result slice still holds whatever
// completed.
func (r *Runner) RunAll(specs []Spec) ([]*Result, error) {
	return r.RunAllContext(context.Background(), specs)
}

// RunAllContext is RunAll under a cancellation context: once ctx is
// done, every spec's wait ends at once, and executions no other caller
// waits on are canceled and abandon at their next phase boundary; the
// first error (by input position) wraps apierr.ErrCanceled. With a
// background context the results are byte-identical to RunAll.
func (r *Runner) RunAllContext(ctx context.Context, specs []Spec) ([]*Result, error) {
	sweep := r.spans.Begin(0, telemetry.KindSweep, fmt.Sprintf("sweep %d specs", len(specs)))
	defer r.spans.End(sweep)
	results := make([]*Result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.run(ctx, specs[i], sweep)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("runner: %s: %w", specs[i], err)
		}
	}
	return results, nil
}

// PlanContext decides a spec's ExecutionPlan without executing it —
// the service's /v1/plan endpoint and any decide-only caller go
// through here. The decision comes from the plan cache when possible
// (same key as executed specs, so a later execution of the spec reuses
// it). The returned report is non-nil only for matchmade specs
// (Spec.Strategy == ""). Planning itself is not interruptible; ctx
// gates entry and bounds the wait for a decision.
func (r *Runner) PlanContext(ctx context.Context, spec Spec) (*plan.ExecutionPlan, *analyzer.Report, error) {
	if err := apierr.FromContext(ctx); err != nil {
		return nil, nil, err
	}
	plat := spec.platform()
	p, err := spec.build(plat, false)
	if err != nil {
		return nil, nil, err
	}
	s, rep, err := spec.resolve(p)
	if err != nil {
		return nil, rep, err
	}
	pl, err := r.planFor(ctx, spec, s, plat, p, strategy.Options{
		Chunks: spec.Chunks, NoSeed: spec.NoSeed, Spans: r.spans,
		SpanParent: telemetry.ParentFrom(ctx), Faults: spec.Fault,
	})
	return pl, rep, err
}

// ValidateContext checks Table I's ranking for a spec that names no
// strategy (the Section IV experiment): it analyzes a timing-only
// build, runs every ranked strategy as a copy of spec through
// RunAllContext — cached, in parallel and under run spans like any
// sweep — and hands the makespans to analyzer.CheckRanking. A spec
// naming a strategy is refused with apierr.ErrOptionsInvalid.
func (r *Runner) ValidateContext(ctx context.Context, spec Spec) (*analyzer.Validation, error) {
	if err := apierr.FromContext(ctx); err != nil {
		return nil, err
	}
	if spec.Strategy != "" {
		return nil, fmt.Errorf("runner: validating %s: the ranking decides the strategies: %w",
			spec, apierr.ErrOptionsInvalid)
	}
	p, err := spec.build(spec.platform(), false)
	if err != nil {
		return nil, err
	}
	rep, err := analyzer.Analyze(p)
	if err != nil {
		return nil, err
	}
	specs := make([]Spec, len(rep.Ranked))
	for i, name := range rep.Ranked {
		specs[i] = spec
		specs[i].Strategy = name
	}
	results, err := r.RunAllContext(ctx, specs)
	if err != nil {
		return nil, err
	}
	times := make(map[string]sim.Duration, len(results))
	for i, res := range results {
		times[rep.Ranked[i]] = res.Outcome.Result.Makespan
	}
	return analyzer.CheckRanking(rep, times), nil
}

// execute performs one run inside a worker slot. Everything mutable —
// problem, directory, scheduler, engine, trace, metrics — is created
// here and owned by this call; the platform and the app/strategy
// registries are read-only. A nil pl resolves and decides the spec's
// plan, and a device loss replans on the survivors; a given pl is
// replayed as is, and a device loss fails the run.
func (r *Runner) execute(ctx context.Context, spec Spec, pl *plan.ExecutionPlan, parent telemetry.SpanID) (*Result, error) {
	var worker int
	select {
	case worker = <-r.sem:
	case <-ctx.Done():
		return nil, apierr.Canceled(ctx.Err())
	}
	defer func() { r.sem <- worker }()

	runSpan := r.spans.Begin(parent, telemetry.KindRun, spec.String())
	defer r.spans.End(runSpan)
	r.spans.Annotate(runSpan, "app", spec.App)
	r.spans.Annotate(runSpan, "n", strconv.FormatInt(spec.N, 10))

	plat := spec.platform()
	p, err := spec.build(plat, spec.Compute)
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: spec}
	if spec.WithMetrics {
		res.Metrics = metrics.NewRegistry()
	}
	opts := strategy.Options{
		Chunks:       spec.Chunks,
		NoSeed:       spec.NoSeed,
		Compute:      spec.Compute,
		CollectTrace: spec.CollectTrace,
		Metrics:      res.Metrics,
		Spans:        r.spans,
		SpanParent:   runSpan,
		Faults:       spec.Fault,
	}
	rebuild := func(surv *device.Platform) (*apps.Problem, error) {
		return spec.build(surv, spec.Compute)
	}
	if pl == nil {
		// Resolve the strategy first (for matchmade specs through the
		// analyzer — Analyze is pure, so splitting it from the execution
		// preserves Matchmake's behaviour), then decide and execute as
		// separate steps so the decision can come from the plan cache.
		s, rep, err := spec.resolve(p)
		if err != nil {
			return nil, err
		}
		res.Report = rep
		r.spans.Annotate(runSpan, "strategy", s.Name())
		if pl, err = r.planFor(ctx, spec, s, plat, p, opts); err != nil {
			return nil, err
		}
	} else {
		r.spans.Annotate(runSpan, "strategy", pl.Strategy)
		rebuild = nil
	}
	// Every run is one bounded device-loss recovery: a clean run is its
	// single attempt, and a lost accelerator replans on the survivors
	// (unless replaying), with the result recording the plan that
	// actually executed. A failed run returns its typed error and, like
	// any failure, is not memoized.
	rec, err := strategy.ExecuteRecover(ctx, pl, p, plat, opts, rebuild)
	if err != nil {
		return nil, err
	}
	res.Plan, res.Outcome, res.Verify = rec.Plan, rec.Outcome, rec.Problem.Verify
	r.runs.Inc()
	if r.workerRuns != nil {
		r.workerRuns[worker].Inc()
	}
	return res, nil
}

// planFor returns the spec's decided ExecutionPlan, from the plan
// cache when possible. Specs with a private metrics registry plan
// inline on their own problem so the Glinda profiling gauges land in
// that registry (a cached decision would silently skip them).
func (r *Runner) planFor(ctx context.Context, spec Spec, s strategy.Strategy, plat *device.Platform,
	p *apps.Problem, opts strategy.Options) (*plan.ExecutionPlan, error) {
	if r.plans == nil || spec.WithMetrics {
		return strategy.PlanInSpan(s, p, plat, opts)
	}
	pl, _, err := r.plans.Do(ctx, spec.PlanKey(s.Name()), func(context.Context) (*plan.ExecutionPlan, error) {
		return r.decide(spec, s, plat, opts.SpanParent)
	})
	return pl, err
}

// decide plans on a fresh timing-only problem build. The decision
// depends only on the timing model — Glinda's probes simulate in
// virtual time whether or not kernels compute real data — so
// compute-mode and trace-mode variants of a spec share the cached
// plan, and planning here leaves the caller's problem untouched.
func (r *Runner) decide(spec Spec, s strategy.Strategy, plat *device.Platform,
	parent telemetry.SpanID) (*plan.ExecutionPlan, error) {
	p, err := spec.build(plat, false)
	if err != nil {
		return nil, err
	}
	return strategy.PlanInSpan(s, p, plat, strategy.Options{
		Chunks: spec.Chunks, NoSeed: spec.NoSeed,
		Spans: r.spans, SpanParent: parent,
		Faults: spec.Fault,
	})
}
