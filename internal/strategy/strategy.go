// Package strategy implements the paper's five partitioning strategies
// (Section III-C) plus the Only-CPU / Only-GPU reference
// configurations:
//
//	SP-Single   static split of a single kernel via Glinda
//	SP-Unified  one static split shared by all kernels (fused model)
//	SP-Varied   per-kernel static splits, sync after every kernel
//	DP-Dep      dynamic, breadth-first + dependency-chain affinity
//	DP-Perf     dynamic, performance-aware earliest-finish
//
// Deciding and executing are split: Plan turns a problem into a
// serializable plan.ExecutionPlan — running whatever Glinda profiling
// the strategy's definition requires — and the shared Execute carries
// any plan out on the simulated platform. Run composes the two.
package strategy

import (
	"context"
	"fmt"
	"strings"

	"heteropart/internal/apierr"
	"heteropart/internal/apps"
	"heteropart/internal/classify"
	"heteropart/internal/device"
	"heteropart/internal/fault"
	"heteropart/internal/glinda"
	"heteropart/internal/mem"
	"heteropart/internal/metrics"
	"heteropart/internal/names"
	"heteropart/internal/plan"
	"heteropart/internal/rt"
	"heteropart/internal/sched"
	"heteropart/internal/sim"
	"heteropart/internal/task"
	"heteropart/internal/telemetry"
	"heteropart/internal/trace"
)

// Options tunes an execution.
type Options struct {
	// Chunks is the number of task instances per kernel for dynamic
	// strategies and for the CPU side of static strategies (the
	// paper's m); 0 uses the platform's CPU thread count.
	Chunks int
	// Compute executes real kernels (and Verify can then be called).
	Compute bool
	// CollectTrace attaches a trace to the measured run.
	CollectTrace bool
	// Metrics, when non-nil, receives runtime counters, scheduler
	// telemetry and the Glinda decision gauges of the measured run
	// (training/profiling passes are not instrumented — the registry
	// reflects what the paper measures).
	Metrics *metrics.Registry
	// NoSeed disables DP-Perf's excluded training pass, exposing the
	// raw profiling phase in the measurement.
	NoSeed bool
	// Spans, when non-nil, receives hierarchical telemetry spans: the
	// strategy's plan and execute spans (decide-vs-execute cost is
	// first-class), Glinda profile spans, and the runtime's phase /
	// chunk / transfer / decision spans beneath them.
	Spans *telemetry.Tracer
	// SpanParent is the span the strategy's spans attach to (normally
	// the runner's run span; 0 makes them roots).
	SpanParent telemetry.SpanID
	// Faults, when non-nil, injects the schedule into the measured run
	// (and, for seeded perf plans, the training pass): a fresh
	// fault.Injector per execution, so every attempt is independently
	// deterministic. Profile-noise faults additionally perturb Glinda
	// probes via glindaCfg. Injected failures surface as typed errors
	// wrapping apierr.ErrFaultInjected; ExecuteRecover answers device
	// losses with a bounded replan.
	Faults *fault.Schedule

	// ctx is the execution's cancellation context, set by the *Context
	// entry points (ExecuteContext, RunContext) and threaded into the
	// runtime's phase-boundary checks. It stays unexported so the
	// public Options surface has exactly one way to pass a context —
	// the *Context functions — and the context-free paths stay
	// byte-identical wrappers over them.
	ctx context.Context
}

// Validate rejects incoherent option combinations before any work
// runs, wrapping apierr.ErrOptionsInvalid so callers (and the HTTP
// service) classify the failure without string matching. Every facade
// entry point that accepts an Options calls it, replacing scattered
// ad-hoc checks: a zero Options is always valid.
func (o Options) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("strategy: %w: "+format,
			append([]any{apierr.ErrOptionsInvalid}, args...)...)
	}
	if o.Chunks < 0 {
		return bad("chunks %d must be non-negative", o.Chunks)
	}
	if o.Chunks > 1<<16 {
		return bad("chunks %d exceeds the %d task-instance cap", o.Chunks, 1<<16)
	}
	if o.SpanParent != 0 && o.Spans == nil {
		return bad("span parent %d set without a tracer", o.SpanParent)
	}
	if o.Faults != nil {
		if err := o.Faults.Validate(); err != nil {
			return fmt.Errorf("strategy: %w: fault schedule: %v", apierr.ErrOptionsInvalid, err)
		}
	}
	return nil
}

func (o Options) chunks(plat *device.Platform) int {
	if o.Chunks > 0 {
		return o.Chunks
	}
	return plat.CPUThreads()
}

// glindaCfg hands the strategy-level metrics registry, span tracer
// and fault schedule to Glinda, so one Options instruments and perturbs
// the whole pipeline (profiling included) without extra wiring.
func (o Options) glindaCfg() glinda.Config {
	return glinda.Config{Metrics: o.Metrics, Spans: o.Spans, SpanParent: o.SpanParent, Faults: o.Faults}
}

// Outcome is a strategy's measured execution.
type Outcome struct {
	Strategy string
	Result   *rt.Result
	Trace    *trace.Trace
	// Decisions holds the Glinda decision per distinct kernel for
	// static strategies (one entry, keyed "", for SP-Single and
	// SP-Unified).
	Decisions map[string]glinda.Decision
	// Faults is the schedule the run was injected with (the original
	// one, before any device-loss pruning — the repro artifact). Nil
	// for clean runs.
	Faults *fault.Schedule
	// Degradations records every device loss the run survived via
	// ExecuteRecover's replan, in the order they fired. Empty for runs
	// that completed on their first attempt.
	Degradations []fault.Degradation
}

// GPURatio is the measured accelerator share of the computation.
func (o *Outcome) GPURatio() float64 { return o.Result.GPURatio() }

// Strategy is one partitioning strategy.
type Strategy interface {
	// Name is the paper's strategy name.
	Name() string
	// Applicable reports whether the strategy suits an application
	// class (Table I). needsSync distinguishes the MK-Seq/MK-Loop
	// sub-cases.
	Applicable(cls classify.Class, needsSync bool) bool
	// Plan decides without executing: it runs whatever profiling the
	// strategy requires (the problem's directory is reset afterwards,
	// so planning leaves no footprint) and returns the full decision
	// record. The plan is immutable and bound to the platform's
	// fingerprint; Execute (or a JSON round trip and then Execute)
	// carries it out.
	Plan(p *apps.Problem, plat *device.Platform, opts Options) (*plan.ExecutionPlan, error)
	// Run executes the problem end to end — Plan followed by Execute —
	// and returns the measured outcome. The problem's directory is
	// left in its final state.
	Run(p *apps.Problem, plat *device.Platform, opts Options) (*Outcome, error)
}

// All returns every strategy: the five of Section III-C, the two
// single-device references, and the Section-V conversion.
func All() []Strategy {
	return []Strategy{
		SPSingle{}, SPUnified{}, SPVaried{}, DPPerf{}, DPDep{},
		OnlyGPU{}, OnlyCPU{}, DPConverted{},
	}
}

// Partitioning returns only the five partitioning strategies.
func Partitioning() []Strategy {
	return []Strategy{SPSingle{}, SPUnified{}, SPVaried{}, DPPerf{}, DPDep{}}
}

// ByName finds a strategy. Matching is case-insensitive; an unknown
// name suggests the closest registered spelling when one is close.
func ByName(name string) (Strategy, error) {
	all := All()
	for _, s := range all {
		if strings.EqualFold(s.Name(), name) {
			return s, nil
		}
	}
	known := make([]string, len(all))
	for i, s := range all {
		known[i] = s.Name()
	}
	if sug := names.Closest(name, known); sug != "" {
		return nil, fmt.Errorf("strategy: %w %q (did you mean %q?)", apierr.ErrUnknownStrategy, name, sug)
	}
	return nil, fmt.Errorf("strategy: %w %q", apierr.ErrUnknownStrategy, name)
}

// Execute carries out a decided plan on the platform: it validates the
// plan (including the platform fingerprint) and the platform's
// calibration, materializes the task instances once, builds the named
// scheduler — running the training pass first for seeded perf plans —
// and measures the execution. Replaying a plan reproduces the run that
// decided it exactly: the simulator is deterministic and the plan pins
// the whole decision surface.
func Execute(pl *plan.ExecutionPlan, p *apps.Problem, plat *device.Platform, opts Options) (*Outcome, error) {
	return ExecuteContext(context.Background(), pl, p, plat, opts)
}

// ExecuteContext is Execute with a cancellation context: the context
// is checked before the training pass and cooperatively at the
// runtime's phase boundaries; a canceled run returns an error wrapping
// apierr.ErrCanceled. With a background context the behaviour — and
// the measured result — is byte-identical to Execute.
//
// A seeded perf plan's training and measured runs execute the one
// materialized task plan, with the directory reset between them: the
// runtime keeps its run state by instance ID and builds the dependence
// graph only for the first run.
func ExecuteContext(ctx context.Context, pl *plan.ExecutionPlan, p *apps.Problem, plat *device.Platform, opts Options) (*Outcome, error) {
	if pl == nil {
		return nil, fmt.Errorf("strategy: nil plan: %w", apierr.ErrPlanInvalid)
	}
	if err := apierr.FromContext(ctx); err != nil {
		return nil, fmt.Errorf("strategy %s on %s: %w", pl.Strategy, pl.App, err)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.ctx = ctx
	execSpan := opts.Spans.Begin(opts.SpanParent, telemetry.KindExecute, pl.Strategy)
	defer opts.Spans.End(execSpan)
	if err := pl.CheckPlatform(plat); err != nil {
		return nil, err
	}
	if err := checkScales(plat); err != nil {
		return nil, err
	}
	tp, err := pl.Materialize(p)
	if err != nil {
		return nil, err
	}
	var s sched.Scheduler
	switch pl.Scheduler.Policy {
	case plan.PolicyStatic:
		s = sched.NewStatic()
	case plan.PolicyDep:
		s = sched.NewDep()
	case plan.PolicyPerf:
		perf := sched.NewPerf()
		if pl.Scheduler.Seeded {
			// The excluded profiling phase (Section IV-A3): a training
			// execution of the same task plan learns the rates, the
			// directory is reset, and the measured run starts from the
			// trained profile.
			trainer := sched.NewPerf()
			trainSpan := opts.Spans.Begin(execSpan, telemetry.KindTrain, "perf-training")
			if _, err := rt.Execute(rt.Config{
				Platform: plat, Scheduler: trainer, Ctx: opts.ctx,
				Faults: fault.NewInjector(opts.Faults, fault.ScopeExecute),
			}, tp, p.Dir); err != nil {
				opts.Spans.End(trainSpan)
				return nil, err
			}
			opts.Spans.End(trainSpan)
			p.Dir.Reset()
			perf.Seed(trainer.Snapshot())
		}
		s = perf
	default:
		// Materialize validated the policy already; defend anyway.
		return nil, fmt.Errorf("strategy: plan names unknown scheduler policy %q", pl.Scheduler.Policy)
	}
	spanPhases := make([]rt.SpanPhase, 0, len(pl.Phases))
	for _, ph := range pl.Phases {
		spanPhases = append(spanPhases, rt.SpanPhase{Name: ph.Kernel, Instances: len(ph.Chunks)})
	}
	out, err := execute(pl.Strategy, p, plat, s, tp, opts, execSpan, spanPhases)
	if err != nil {
		return nil, err
	}
	opts.Spans.Virtual(execSpan, 0, sim.Time(out.Result.Makespan))
	opts.Spans.Annotate(execSpan, "app", pl.App)
	if len(pl.Decisions) > 0 {
		out.Decisions = make(map[string]glinda.Decision, len(pl.Decisions))
		for k, v := range pl.Decisions {
			out.Decisions[k] = v
		}
		recordDecisions(opts, out)
	}
	return out, nil
}

// runPlanned is the shared Run body: decide, then execute. The two
// steps get sibling plan / execute spans, so decide-vs-execute cost
// is directly readable off the span tree.
func runPlanned(s Strategy, p *apps.Problem, plat *device.Platform, opts Options) (*Outcome, error) {
	return RunContext(context.Background(), s, p, plat, opts)
}

// RunContext runs a strategy end to end — Plan followed by
// ExecuteContext — under a cancellation context. Deciding itself is
// not interruptible (Glinda profiling is short relative to measured
// runs); the context gates entry and the whole execution. With a
// background context the result is byte-identical to Strategy.Run.
func RunContext(ctx context.Context, s Strategy, p *apps.Problem, plat *device.Platform, opts Options) (*Outcome, error) {
	if err := apierr.FromContext(ctx); err != nil {
		return nil, fmt.Errorf("strategy %s on %s: %w", s.Name(), p.AppName, err)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	pl, err := PlanInSpan(s, p, plat, opts)
	if err != nil {
		return nil, err
	}
	return ExecuteContext(ctx, pl, p, plat, opts)
}

// PlanInSpan decides s on p inside a plan span under opts.SpanParent,
// with the strategy's own spans (Glinda probes) beneath it. A platform
// whose calibration no spec or report could carry is refused first.
func PlanInSpan(s Strategy, p *apps.Problem, plat *device.Platform, opts Options) (*plan.ExecutionPlan, error) {
	if err := checkScales(plat); err != nil {
		return nil, err
	}
	planSpan := opts.Spans.Begin(opts.SpanParent, telemetry.KindPlan, "plan "+s.Name())
	defer opts.Spans.End(planSpan)
	opts.SpanParent = planSpan
	return s.Plan(p, plat, opts)
}

// checkScales refuses a calibrated platform whose scales break
// device.ValidateScales — a factor outside its bounds, a device the
// platform lacks, a repeated (kernel, device) pair — with an error
// wrapping apierr.ErrPlatformInvalid: no platform spec or calibration
// report could carry them, and WithScales does not check. An
// uncalibrated platform costs nothing.
func checkScales(plat *device.Platform) error {
	if plat == nil || len(plat.Scales) == 0 {
		return nil
	}
	return device.ValidateScales(plat.Scales, 1+len(plat.Accels))
}

// newPlan assembles the plan envelope around the phases g cuts from p.
func newPlan(name string, p *apps.Problem, plat *device.Platform, spec plan.SchedulerSpec,
	g grid, decs map[string]glinda.Decision) (*plan.ExecutionPlan, error) {
	phases, err := g.phases(p)
	if err != nil {
		return nil, err
	}
	return &plan.ExecutionPlan{
		Version:   plan.Version,
		App:       p.AppName,
		Strategy:  name,
		Class:     p.Class().String(),
		NeedsSync: p.NeedsSync(),
		Atomic:    p.AtomicPhases,
		N:         p.N,
		Iters:     p.Iters,
		Devices:   1 + len(plat.Accels),
		Platform:  plan.Fingerprint(plat),
		Scheduler: spec,
		Phases:    phases,
		Decisions: decs,
	}, nil
}

// execute runs a materialized task plan and wraps the outcome.
func execute(name string, p *apps.Problem, plat *device.Platform, s sched.Scheduler,
	tp *task.Plan, opts Options, span telemetry.SpanID, phases []rt.SpanPhase) (*Outcome, error) {
	var tr *trace.Trace
	if opts.CollectTrace {
		tr = &trace.Trace{}
	}
	res, err := rt.Execute(rt.Config{
		Platform:   plat,
		Scheduler:  s,
		Ctx:        opts.ctx,
		Trace:      tr,
		Metrics:    opts.Metrics,
		Spans:      opts.Spans,
		SpanParent: span,
		SpanPhases: phases,
		Compute:    opts.Compute,
		Faults:     fault.NewInjector(opts.Faults, fault.ScopeExecute),
	}, tp, p.Dir)
	if err != nil {
		return nil, fmt.Errorf("strategy %s on %s: %w", name, p.AppName, err)
	}
	out := &Outcome{Strategy: name, Result: res, Trace: tr, Faults: opts.Faults}
	if opts.Metrics != nil {
		// Partition-ratio history: the gauge holds the latest run, the
		// histogram accumulates across runs (auto-tune sweeps, loops).
		ratioPct := int64(100*out.GPURatio() + 0.5)
		opts.Metrics.Gauge("strategy_gpu_ratio_pct",
			"accelerator share of computed elements, latest run").SetInt(ratioPct)
		opts.Metrics.Histogram("strategy_gpu_ratio_history_pct",
			"accelerator share per run, percent").Observe(ratioPct)
		opts.Metrics.Counter("strategy_runs_total", "strategy executions measured").Inc()
	}
	return out, nil
}

// recordDecisions publishes the Glinda decision telemetry of a static
// strategy: the partition point per kernel and, when the underlying
// estimate is available, the model's makespan-prediction error against
// the measured run.
func recordDecisions(opts Options, out *Outcome) {
	r := opts.Metrics
	if r == nil || out == nil {
		return
	}
	for kernel, d := range out.Decisions {
		if kernel == "" {
			kernel = "unified"
		}
		r.Gauge(metrics.Label("glinda_beta", "kernel", kernel),
			"model-optimal accelerator fraction").Set(d.Beta)
		r.Gauge(metrics.Label("glinda_ng", "kernel", kernel),
			"accelerator partition elements after rounding").SetInt(d.NG)
		r.Gauge(metrics.Label("glinda_nc", "kernel", kernel),
			"host partition elements after rounding").SetInt(d.NC)
		r.Gauge(metrics.Label("glinda_r", "kernel", kernel),
			"relative hardware capability metric").Set(d.R)
		r.Gauge(metrics.Label("glinda_g", "kernel", kernel),
			"computation-to-transfer gap metric").Set(d.G)
		if d.Est.N > 0 && out.Result.Makespan > 0 {
			pred := d.Est.PredictMakespan(d.Beta, d.Est.N) // seconds
			meas := out.Result.Makespan.Seconds()
			if pred > 0 && meas > 0 {
				err := 100 * (pred - meas) / meas
				if err < 0 {
					err = -err
				}
				r.Gauge(metrics.Label("glinda_prediction_error_pct", "kernel", kernel),
					"abs relative error of the model's predicted makespan").Set(err)
			}
		}
	}
}

// grid is the chunk rule every plan is assembled from. In each phase,
// accelerator i+1 takes shares(ph)[i] elements as one pinned instance,
// in device order from element 0. The rest of the range is cut into m
// equal pieces, or by cut when set; piece i is pinned to pin(ph, i)
// and chained i. On atomic (DAG) problems the rest stays one whole
// instance with no chain.
type grid struct {
	m int
	// shares, when set, gives a phase's accelerator shares.
	shares func(ph apps.Phase) []int64
	pin    func(ph apps.Phase, piece int) int
	// cut, when set, replaces the equal m-way cut of the rest.
	cut func(rest mem.Interval) []mem.Interval
	// sync, when set, overrides every phase's own taskwait flag.
	sync *bool
}

// onHost and unpinned are the constant piece pins of static and
// dynamic plans.
func onHost(apps.Phase, int) int   { return 0 }
func unpinned(apps.Phase, int) int { return task.Unpinned }

// maxInstances caps the task instances of one plan. Variant.Iters and
// Options.Chunks are each capped at 1<<16, but a plan's chunk lists
// grow with their product.
const maxInstances = 1 << 20

// instances counts the task instances phases would assemble from p,
// without building them. A weighted cut counts as its bound, one piece
// per element up to m.
func (g grid) instances(p *apps.Problem) int64 {
	var n int64
	for _, ph := range p.Phases {
		rest := mem.Interval{Hi: ph.Kernel.Size}
		if g.shares != nil {
			for _, s := range g.shares(ph) {
				if s > 0 {
					n++
				}
				rest.Lo += s
			}
		}
		switch {
		case rest.Empty():
		case p.AtomicPhases:
			n++
		case g.cut != nil:
			n += min(int64(g.m), rest.Len())
		default:
			n += rest.SplitLen(g.m)
		}
	}
	return n
}

// phases assembles one PhasePlan per problem phase. A plan of more
// than maxInstances task instances is refused with an error wrapping
// apierr.ErrOptionsInvalid before any chunk list is allocated.
func (g grid) phases(p *apps.Problem) ([]plan.PhasePlan, error) {
	if n := g.instances(p); n > maxInstances {
		return nil, fmt.Errorf("strategy: %w: a plan of %d task instances exceeds the %d cap",
			apierr.ErrOptionsInvalid, n, maxInstances)
	}
	out := make([]plan.PhasePlan, len(p.Phases))
	// Equal cuts reuse one buffer across phases, on the stack for m up
	// to len(buf).
	var buf [64]mem.Interval
	pieces := buf[:0]
	for i, ph := range p.Phases {
		var shares []int64
		if g.shares != nil {
			shares = g.shares(ph)
		}
		rest := mem.Interval{Hi: ph.Kernel.Size}
		for _, s := range shares {
			rest.Lo += s
		}
		switch {
		case p.AtomicPhases:
			pieces = rest.AppendSplit(pieces[:0], 1)
		case g.cut != nil:
			pieces = g.cut(rest)
		default:
			pieces = rest.AppendSplit(pieces[:0], g.m)
		}
		chs := make([]plan.Chunk, 0, len(shares)+len(pieces))
		at := int64(0)
		for d, s := range shares {
			if s > 0 {
				chs = append(chs, plan.Chunk{Lo: at, Hi: at + s, Pin: d + 1, Chain: -1})
			}
			at += s
		}
		for j, iv := range pieces {
			chain := j
			if p.AtomicPhases {
				chain = -1
			}
			chs = append(chs, plan.Chunk{Lo: iv.Lo, Hi: iv.Hi, Pin: g.pin(ph, j), Chain: chain})
		}
		sync := ph.SyncAfter
		if g.sync != nil {
			sync = *g.sync
		}
		out[i] = plan.PhasePlan{Kernel: ph.Kernel.Name, Size: ph.Kernel.Size, Sync: sync, Chunks: chs}
	}
	return out, nil
}
