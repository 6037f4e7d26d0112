// Package heteropart matches data-parallel applications with workload
// partitioning strategies for efficient execution on heterogeneous
// (CPU + accelerator) platforms, reproducing Shen, Varbanescu,
// Martorell and Sips, "Matchmaking Applications and Partitioning
// Strategies for Efficient Execution on Heterogeneous Platforms"
// (ICPP 2015).
//
// The library bundles everything the paper builds on:
//
//   - a deterministic discrete-event simulator of heterogeneous
//     platforms (CPU + GPU datasheet models, PCIe links, distinct
//     memory spaces) calibrated to the paper's Xeon E5-2620 + Tesla
//     K20m testbed;
//   - an OmpSs-like task runtime: data-dependency analysis, automatic
//     host<->device transfers, taskwait semantics and pluggable
//     schedulers;
//   - the Glinda static partitioning model (profiling + prediction +
//     hardware-configuration decision);
//   - the application classifier (SK-One, SK-Loop, MK-Seq, MK-Loop,
//     MK-DAG) and the five partitioning strategies (SP-Single,
//     SP-Unified, SP-Varied, DP-Dep, DP-Perf);
//   - the analyzer that ranks the suitable strategies per class
//     (Table I) and selects the best;
//   - the paper's six evaluation applications plus a Class-V blocked
//     Cholesky, and the harness regenerating every evaluation figure
//     and table.
//
// Quick start:
//
//	plat := heteropart.PaperPlatform(12)
//	app, _ := heteropart.AppByName("BlackScholes")
//	problem, _ := app.Build(heteropart.Variant{})
//	report, outcome, _ := heteropart.Matchmake(problem, plat, heteropart.Options{})
//	fmt.Println(report, outcome.Result.Makespan)
package heteropart

import (
	"context"
	"fmt"
	"reflect"

	"heteropart/internal/analyzer"
	"heteropart/internal/apierr"
	"heteropart/internal/apps"
	"heteropart/internal/calib"
	"heteropart/internal/classify"
	"heteropart/internal/device"
	"heteropart/internal/exp"
	"heteropart/internal/fault"
	"heteropart/internal/glinda"
	"heteropart/internal/mem"
	"heteropart/internal/metrics"
	"heteropart/internal/plan"
	"heteropart/internal/rt"
	"heteropart/internal/runner"
	"heteropart/internal/sim"
	"heteropart/internal/strategy"
	"heteropart/internal/task"
	"heteropart/internal/telemetry"
	"heteropart/internal/telemetry/flight"
	"heteropart/internal/telemetry/serve"
	"heteropart/internal/trace"
)

// Platform and device modeling.
type (
	// Platform is a host CPU plus attached accelerators.
	Platform = device.Platform
	// Device is a processing unit instantiated on a platform.
	Device = device.Device
	// DeviceModel is the datasheet description of a processing unit.
	DeviceModel = device.Model
	// DeviceKind discriminates CPUs, GPUs and generic accelerators.
	DeviceKind = device.Kind
	// Link models a host<->accelerator interconnect.
	Link = device.Link
	// Attachment pairs an accelerator model with its host link.
	Attachment = device.Attachment
	// Efficiency calibrates a kernel's achieved fraction of peak.
	Efficiency = device.Efficiency
	// Precision selects single or double precision peaks.
	Precision = device.Precision
	// P2PEdge is a direct accelerator<->accelerator link on a
	// platform's topology graph.
	P2PEdge = device.P2PEdge
	// PlatformSpec is the JSON-serializable platform description: the
	// catalog entry format, the payload of hetsim -platform-in, and
	// the body of GET /v1/platforms entries.
	PlatformSpec = device.Spec
	// CostScale is one calibration factor on a platform's roofline
	// price (Platform.Scales).
	CostScale = device.Scale
)

// Device kinds and precisions.
const (
	CPU = device.CPU
	GPU = device.GPU
	// Accel is a generic many-core accelerator.
	Accel = device.Accel

	// SP and DP select the peak-FLOPS figure a kernel uses.
	SP = device.SP
	DP = device.DP
)

// Tasking and memory.
type (
	// Kernel describes one parallel section: iteration space, cost
	// model, efficiencies, data accesses and an optional real
	// implementation.
	Kernel = task.Kernel
	// Access names a buffer region a kernel chunk touches.
	Access = task.Access
	// AccessMode is in/out/inout.
	AccessMode = task.Mode
	// Buffer is a registered array.
	Buffer = mem.Buffer
	// Interval is a half-open element range.
	Interval = mem.Interval
	// Trace records task placements and transfers of one execution.
	Trace = trace.Trace
	// ExecutionResult summarizes one runtime execution.
	ExecutionResult = rt.Result
	// Duration is virtual time in nanoseconds.
	Duration = sim.Duration
)

// Access modes.
const (
	Read      = task.Read
	Write     = task.Write
	ReadWrite = task.ReadWrite
)

// Classification.
type (
	// Class is one of the paper's five application classes.
	Class = classify.Class
	// Structure is an application's kernel structure (the IR the
	// classifier walks).
	Structure = classify.Structure
	// FlowCall, FlowSeq, FlowLoop and FlowDAG build Structure flows.
	FlowCall = classify.Call
	FlowSeq  = classify.Seq
	FlowLoop = classify.Loop
	FlowDAG  = classify.DAG
	// DAGCall is one node of a FlowDAG.
	DAGCall = classify.DAGCall
)

// The five classes.
const (
	SKOne  = classify.SKOne
	SKLoop = classify.SKLoop
	MKSeq  = classify.MKSeq
	MKLoop = classify.MKLoop
	MKDAG  = classify.MKDAG
)

// Applications and execution.
type (
	// App builds problem instances.
	App = apps.App
	// Problem is an instantiated workload.
	Problem = apps.Problem
	// Phase is one kernel invocation in program order.
	Phase = apps.Phase
	// Variant parameterizes a problem build.
	Variant = apps.Variant
	// SyncMode selects the inter-kernel synchronization variant.
	SyncMode = apps.SyncMode
	// Strategy is a partitioning strategy.
	Strategy = strategy.Strategy
	// Options tunes strategy execution.
	Options = strategy.Options
	// Outcome is a measured strategy execution.
	Outcome = strategy.Outcome
	// Report is the analyzer's matchmaking decision.
	Report = analyzer.Report
	// Validation is an empirical Table-I ranking check.
	Validation = analyzer.Validation
	// GlindaDecision is a hardware-configuration + partitioning
	// decision.
	GlindaDecision = glinda.Decision
	// Experiment regenerates one paper table or figure.
	Experiment = exp.Experiment
	// ResultTable is an experiment's rendered output.
	ResultTable = exp.Table
	// ExpEnv is the environment experiments run in: a platform plus
	// the sweep runner sharding their simulations.
	ExpEnv = exp.Env
	// RunSpec names one independent simulation run for the sweep
	// runner; its canonical encoding is the result-cache key.
	RunSpec = runner.Spec
	// RunResult is one measured RunSpec.
	RunResult = runner.Result
	// RunnerConfig parameterizes a sweep runner.
	RunnerConfig = runner.Config
	// Runner shards independent simulation runs over a bounded worker
	// pool with a content-addressed result cache; results come back in
	// input order, so rendered sweeps are byte-identical to sequential
	// execution.
	Runner = runner.Runner
	// Metrics is a registry of runtime/scheduler instruments; pass one
	// through Options.Metrics to collect execution telemetry.
	Metrics = metrics.Registry
	// MetricsSnapshot is a point-in-time view of a registry.
	MetricsSnapshot = metrics.Snapshot
	// ExecutionPlan is the serializable decision record a strategy's
	// Plan produces: per-kernel partitions, chunk boundaries, pins,
	// scheduler policy and synchronization structure. Execute it with
	// ExecutePlan, round-trip it with its JSON method and PlanFromJSON.
	ExecutionPlan = plan.ExecutionPlan
	// PlanPhase is one kernel invocation's partitioning inside an
	// ExecutionPlan.
	PlanPhase = plan.PhasePlan
	// PlanChunk is one contiguous task instance inside a PlanPhase.
	PlanChunk = plan.Chunk
	// SchedulerSpec names the scheduling policy a plan executes under.
	SchedulerSpec = plan.SchedulerSpec
)

// Synchronization variants.
const (
	SyncDefault = apps.SyncDefault
	SyncForced  = apps.SyncForced
	SyncNone    = apps.SyncNone
)

// PaperPlatform builds the evaluation platform of the paper's Table
// III — an Intel Xeon E5-2620 host with an Nvidia Tesla K20m on PCIe
// 2.0 — with m CPU worker threads (m <= 0 selects all 12 hardware
// threads).
func PaperPlatform(m int) *Platform { return device.PaperPlatform(m) }

// NewPlatform builds a custom platform from a CPU model and
// accelerator attachments. It fails when the host model is not a CPU
// or an attachment is.
func NewPlatform(cpu DeviceModel, cpuThreads int, accels ...Attachment) (*Platform, error) {
	return device.NewPlatform(cpu, cpuThreads, accels...)
}

// PlatformFromJSON decodes, validates and instantiates a serialized
// PlatformSpec; threads > 0 overrides the spec's host thread count.
// Failures wrap ErrPlatformInvalid.
func PlatformFromJSON(data []byte, threads int) (*Platform, error) {
	return device.PlatformFromJSON(data, threads)
}

// PlatformSpecFromJSON decodes and validates a serialized
// PlatformSpec without instantiating it; failures wrap
// ErrPlatformInvalid.
func PlatformSpecFromJSON(data []byte) (*PlatformSpec, error) {
	return device.SpecFromJSON(data)
}

// PlatformNames lists the bundled platform catalog (the paper's
// testbed plus the extension topologies), sorted.
func PlatformNames() []string { return device.SpecNames() }

// PlatformByName instantiates a bundled catalog platform; threads > 0
// overrides the spec's host thread count. Unknown names wrap
// ErrPlatformInvalid.
func PlatformByName(name string, threads int) (*Platform, error) {
	return device.ByName(name, threads)
}

// PlatformSpecByName returns a bundled catalog platform spec; unknown
// names wrap ErrPlatformInvalid.
func PlatformSpecByName(name string) (*PlatformSpec, error) {
	return device.SpecByName(name)
}

// Device catalog (datasheet models ready to attach).
var (
	XeonE5_2620  = device.XeonE5_2620
	TeslaK20m    = device.TeslaK20m
	GTX680       = device.GTX680
	XeonPhi5110P = device.XeonPhi5110P
	PCIeGen2x16  = device.PCIeGen2x16
	PCIeGen3x16  = device.PCIeGen3x16
)

// Apps returns the bundled applications (the paper's Table II plus the
// Class-V Cholesky).
func Apps() []App { return apps.Registry() }

// AppByName finds a bundled application.
func AppByName(name string) (App, error) { return apps.ByName(name) }

// AppNames lists the bundled application names, in registry order —
// the values AppByName accepts.
func AppNames() []string {
	all := apps.Registry()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name()
	}
	return names
}

// Strategies returns every partitioning strategy plus the Only-CPU /
// Only-GPU references.
func Strategies() []Strategy { return strategy.All() }

// StrategyNames lists the registered strategy names, in registry
// order — the values StrategyByName accepts.
func StrategyNames() []string {
	all := strategy.All()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name()
	}
	return names
}

// StrategyByName finds a strategy ("SP-Single", "DP-Perf", ...).
func StrategyByName(name string) (Strategy, error) { return strategy.ByName(name) }

// Classify determines the application class of a kernel structure.
func Classify(s Structure) (Class, error) { return classify.Classify(s) }

// ParseStructure reads a kernel structure from its compact textual
// form, e.g. "loop[10]{copy; scale; add; triad} !sync" — see the
// matchmaker CLI's -structure flag.
func ParseStructure(src string) (Structure, error) { return classify.Parse(src) }

// Ranking returns Table I's strategy ordering for a class.
func Ranking(cls Class, needsSync bool) []string { return analyzer.Ranking(cls, needsSync) }

// Analyze classifies a problem and selects the best-ranked strategy
// (the paper's application analyzer, Fig. 2).
func Analyze(p *Problem) (Report, error) { return analyzer.Analyze(p) }

// Typed sentinel errors of the API boundary. Every error returned by
// the facade (and the layers beneath it) wraps the matching sentinel
// at its origin, so errors.Is classifies failures without string
// matching; the hetserved HTTP service maps them to status codes
// (404 / 400 / 409 / 499).
var (
	// ErrUnknownApp: AppByName was asked for an unregistered
	// application.
	ErrUnknownApp = apierr.ErrUnknownApp
	// ErrUnknownStrategy: StrategyByName was asked for an unregistered
	// strategy.
	ErrUnknownStrategy = apierr.ErrUnknownStrategy
	// ErrPlanInvalid: an ExecutionPlan failed validation, decoding, or
	// binding to its problem.
	ErrPlanInvalid = apierr.ErrPlanInvalid
	// ErrPlatformInvalid: a PlatformSpec or Platform describes a
	// degenerate machine (zero devices, unreachable device,
	// zero-bandwidth link, unknown model or catalog name), a spec or
	// CalibrationReport carries a link figure or cost factor outside
	// its bounds, or a CalibrationReport fails to decode or validate
	// (wrong version, no platform fingerprint, no scales).
	ErrPlatformInvalid = apierr.ErrPlatformInvalid
	// ErrPlatformMismatch: a plan was executed on a platform other than
	// the one it was decided for.
	ErrPlatformMismatch = apierr.ErrPlatformMismatch
	// ErrCanceled: a *Context run was abandoned because its context was
	// canceled or its deadline expired. The context's own error is in
	// the chain too, so errors.Is also matches context.Canceled /
	// context.DeadlineExceeded.
	ErrCanceled = apierr.ErrCanceled
	// ErrNilOutcome: RecordRun was handed an outcome with no execution
	// result.
	ErrNilOutcome = apierr.ErrNilOutcome
	// ErrFaultInvalid: a FaultSchedule failed validation or decoding.
	ErrFaultInvalid = apierr.ErrFaultInvalid
	// ErrFaultInjected: a run was halted by an injected fault (crash,
	// transfer failure or device loss).
	ErrFaultInjected = apierr.ErrFaultInjected
	// ErrDeviceLost: an injected device-loss fault removed a device
	// mid-run. Errors matching it also match ErrFaultInjected.
	ErrDeviceLost = apierr.ErrDeviceLost
	// ErrCalibrationStale: a CalibrationReport was applied to (or
	// fitted against) a platform other than the one it was recorded
	// on. Correction factors do not transfer across machines.
	ErrCalibrationStale = apierr.ErrCalibrationStale
	// ErrOptionsInvalid: an Options combination was rejected by
	// Options.Validate before any work ran, or a problem cannot be
	// built or run: an App's Build refuses a size whose element or
	// byte counts overflow int64, a trip count above 1<<16 or a size
	// Cholesky cannot tile, and a run fails when its host work would
	// finish past the last representable virtual instant.
	ErrOptionsInvalid = apierr.ErrOptionsInvalid
)

// Matchmake analyzes a problem, then runs the selected strategy on the
// platform.
func Matchmake(p *Problem, plat *Platform, opts Options) (Report, *Outcome, error) {
	return MatchmakeContext(context.Background(), p, plat, opts)
}

// MatchmakeContext is Matchmake under a cancellation context: the
// selected strategy's execution honours ctx cooperatively at phase
// boundaries and returns an error wrapping ErrCanceled when abandoned.
// With a background context the result is byte-identical to Matchmake.
func MatchmakeContext(ctx context.Context, p *Problem, plat *Platform, opts Options) (Report, *Outcome, error) {
	rep, err := analyzer.Analyze(p)
	if err != nil {
		return Report{}, nil, err
	}
	s, err := strategy.ByName(rep.Best)
	if err != nil {
		return rep, nil, err
	}
	out, err := strategy.RunContext(ctx, s, p, plat, opts)
	return rep, out, err
}

// ValidateRanking runs every suitable strategy for an application and
// checks the empirical ordering against Table I, on a one-worker
// Runner (Runner.ValidateContext). An application the registry does
// not know fails with ErrUnknownApp, and options a RunSpec cannot
// carry (Metrics, Spans) with ErrOptionsInvalid.
func ValidateRanking(app App, v Variant, plat *Platform, opts Options) (*Validation, error) {
	if reg, err := apps.ByName(app.Name()); err != nil {
		return nil, err
	} else if reflect.TypeOf(reg) != reflect.TypeOf(app) {
		return nil, fmt.Errorf("heteropart: ValidateRanking: %s is not the bundled application: %w", app.Name(), ErrUnknownApp)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Metrics != nil || opts.Spans != nil {
		return nil, fmt.Errorf("heteropart: ValidateRanking: a run spec carries no metrics or spans: %w", ErrOptionsInvalid)
	}
	return runner.New(runner.Config{Workers: 1}).ValidateContext(context.Background(), RunSpec{
		App: app.Name(), Sync: v.Sync, N: v.N, Iters: v.Iters, Plat: plat,
		Chunks: opts.Chunks, NoSeed: opts.NoSeed, Compute: opts.Compute,
		CollectTrace: opts.CollectTrace, Fault: opts.Faults,
	})
}

// ExecutePlan carries out a decided plan on the platform: validation,
// platform-fingerprint check, materialization and the measured run.
// Replaying a plan (including one loaded with PlanFromJSON) reproduces
// the run that decided it exactly.
func ExecutePlan(pl *ExecutionPlan, p *Problem, plat *Platform, opts Options) (*Outcome, error) {
	return strategy.Execute(pl, p, plat, opts)
}

// ExecutePlanContext is ExecutePlan under a cancellation context,
// checked cooperatively at the runtime's phase boundaries; an
// abandoned run returns an error wrapping ErrCanceled. With a
// background context the result is byte-identical to ExecutePlan.
func ExecutePlanContext(ctx context.Context, pl *ExecutionPlan, p *Problem, plat *Platform, opts Options) (*Outcome, error) {
	return strategy.ExecuteContext(ctx, pl, p, plat, opts)
}

// PlanFromJSON decodes and validates a serialized ExecutionPlan.
func PlanFromJSON(data []byte) (*ExecutionPlan, error) { return plan.FromJSON(data) }

// DiffPlans renders a human-readable comparison of two plans for the
// same problem (what the matchmaker's winner decided differently from
// the runner-up); identical plans diff to nothing.
func DiffPlans(a, b *ExecutionPlan) []string { return plan.Diff(a, b) }

// NewMetrics returns an empty metrics registry. Wire it into a run via
// Options.Metrics, then render it with (*Metrics).Text or walk a
// Snapshot; a nil *Metrics everywhere means observability off at zero
// cost.
func NewMetrics() *Metrics { return metrics.NewRegistry() }

// Experiments returns the harness regenerating every evaluation table
// and figure of the paper.
func Experiments() []Experiment { return exp.All() }

// ExperimentByID finds one experiment ("fig5a", "table1", ...).
func ExperimentByID(id string) (Experiment, error) { return exp.ByID(id) }

// ExperimentNames lists the experiment IDs, in registry order — the
// values ExperimentByID accepts.
func ExperimentNames() []string {
	all := exp.All()
	names := make([]string, len(all))
	for i, e := range all {
		names[i] = e.ID
	}
	return names
}

// MarkdownReport runs every experiment and renders the complete
// EXPERIMENTS.md document (paper-vs-measured, with shape checks).
func MarkdownReport(plat *Platform) (string, error) { return exp.MarkdownReport(plat) }

// NewRunner builds a sweep runner.
func NewRunner(cfg RunnerConfig) *Runner { return runner.New(cfg) }

// Observability: hierarchical span tracing, flight-recorder bundles
// and the live telemetry endpoint (DESIGN.md §8).
type (
	// SpanTracer records hierarchical execution spans (sweep → run →
	// plan/execute → phase → chunk/transfer). Wire one through
	// Options.Spans or RunnerConfig.Spans; a nil tracer everywhere
	// means span tracing off at zero cost.
	SpanTracer = telemetry.Tracer
	// SpanID names one recorded span (0 = none).
	SpanID = telemetry.SpanID
	// Span is one recorded interval.
	Span = telemetry.Span
	// FlightBundle is a versioned flight-recorder bundle: spec, resolved
	// plan, platform fingerprint, metrics snapshot, span tree and
	// utilization table of one run.
	FlightBundle = flight.Bundle
	// TelemetryServer serves /metrics, /healthz, /spans, /runs and
	// /debug/pprof on a private mux.
	TelemetryServer = serve.Server
	// TelemetryConfig parameterizes a TelemetryServer.
	TelemetryConfig = serve.Config
)

// NewSpanTracer returns an empty span tracer.
func NewSpanTracer() *SpanTracer { return telemetry.New() }

// NewTelemetryServer builds the live telemetry HTTP surface.
func NewTelemetryServer(cfg TelemetryConfig) *TelemetryServer { return serve.New(cfg) }

// PlatformFingerprint renders a platform's identity — the same string
// that gates ExecutionPlan replay and keys cached results.
func PlatformFingerprint(p *Platform) string { return plan.Fingerprint(p) }

// RecordRun assembles a flight-recorder bundle from one executed run.
// reg, tr and the outcome's trace may each be nil; the bundle records
// whatever the run collected. An outcome that is nil or carries no
// execution result cannot be recorded and returns an error wrapping
// ErrNilOutcome.
func RecordRun(appName string, out *Outcome, pl *ExecutionPlan, plat *Platform,
	reg *Metrics, tr *SpanTracer) (*FlightBundle, error) {
	if out == nil {
		return nil, fmt.Errorf("heteropart: RecordRun(%s): nil outcome: %w", appName, ErrNilOutcome)
	}
	if out.Result == nil {
		return nil, fmt.Errorf("heteropart: RecordRun(%s/%s): %w", appName, out.Strategy, ErrNilOutcome)
	}
	makespan := out.Result.Makespan
	var snap *MetricsSnapshot
	if reg != nil {
		s := reg.Snapshot(makespan)
		snap = &s
	}
	b, err := flight.Record(appName, out.Strategy, appName+"/"+out.Strategy,
		plan.Fingerprint(plat), int64(makespan), pl, snap, tr,
		out.Trace.Utilization(makespan))
	if err != nil {
		return nil, err
	}
	if err := b.AttachFaults(out.Faults, out.Degradations); err != nil {
		return nil, fmt.Errorf("heteropart: RecordRun(%s/%s): %w", appName, out.Strategy, err)
	}
	return b, nil
}

// ParseBundleFile reads a recorded flight bundle.
func ParseBundleFile(path string) (*FlightBundle, error) { return flight.ParseFile(path) }

// DiffBundles compares two recordings section by section; identical
// runs (including any bundle against itself) diff to nothing.
func DiffBundles(a, b *FlightBundle) []string { return flight.Diff(a, b) }

// Fault injection: deterministic, serializable failure schedules
// (DESIGN.md §12).
type (
	// FaultSchedule is a versioned, serializable description of the
	// faults to inject into one run. The same (spec, schedule) pair
	// always reproduces the same outcome — injection draws all its
	// randomness from the schedule's seed, never from a global source.
	FaultSchedule = fault.Schedule
	// FaultEvent is one fault in a schedule.
	FaultEvent = fault.Fault
	// Degradation records one survived device loss: which device died,
	// when, and what the recovery replan produced.
	Degradation = fault.Degradation
)

// FaultScheduleFromJSON decodes and validates a serialized
// FaultSchedule; failures wrap ErrFaultInvalid.
func FaultScheduleFromJSON(data []byte) (*FaultSchedule, error) { return fault.FromJSON(data) }

// Profile-guided calibration: fit cost-model corrections from recorded
// executions and replan until converged (DESIGN.md §14).
type (
	// CalibrationReport is the versioned, byte-stable calibration
	// artifact: fitted CostScale factors plus per-round evidence. Apply
	// it to a platform with its Apply method; a platform whose base
	// fingerprint differs is refused with ErrCalibrationStale.
	CalibrationReport = calib.Report
	// CalibrationRound is one round's evidence inside a report.
	CalibrationRound = calib.Round
	// CalibrationEntry is one fitted (kernel, device) group.
	CalibrationEntry = calib.Entry
	// CalibrationObservation is one measured chunk execution extracted
	// from a span tree.
	CalibrationObservation = calib.Observation
	// ConvergeConfig drives the iterate-replan-measure loop.
	ConvergeConfig = calib.Config
)

// Calibrate fits a CalibrationReport from recorded flight bundles:
// plan-predicted chunk times are compared against the recorded span
// tree and per-(kernel, device) correction factors are fitted (median
// of ratios). Bundles recorded on a different platform are refused
// with an error wrapping ErrCalibrationStale.
func Calibrate(bundles []*FlightBundle, plat *Platform) (*CalibrationReport, error) {
	return calib.Calibrate(bundles, plat)
}

// Converge runs the profile-guided calibration loop: decide a plan on
// the believed cost model, execute it on the truth platform, fit
// corrections from the observed chunk times, fold them in, and repeat
// until the measured makespan settles (or cfg.MaxRounds). It returns
// the report, the plan decided on the converged model, and the
// calibrated platform. Deterministic: equal inputs produce
// byte-identical reports and plans.
func Converge(cfg ConvergeConfig, truth, believed *Platform) (*CalibrationReport, *ExecutionPlan, *Platform, error) {
	return calib.Converge(cfg, truth, believed)
}

// CalibrationFromJSON decodes and validates a serialized
// CalibrationReport; failures wrap ErrPlatformInvalid.
func CalibrationFromJSON(data []byte) (*CalibrationReport, error) { return calib.FromJSON(data) }

// NewExpEnv builds an experiment environment whose internal sweeps
// shard over a pool of the given width (workers <= 1 is sequential).
// reg may be nil; when set it receives the runner_* telemetry.
func NewExpEnv(plat *Platform, workers int, reg *Metrics) *ExpEnv {
	return exp.NewEnv(plat, workers, reg)
}

// RunExperiments fans the experiments over the environment's worker
// pool and returns their tables in input order.
func RunExperiments(env *ExpEnv, exps []Experiment) ([]*ResultTable, error) {
	return exp.RunExperiments(env, exps)
}

// MarkdownReportEnv renders the EXPERIMENTS.md document through the
// environment's sweep runner; the output is byte-identical to the
// sequential MarkdownReport.
func MarkdownReportEnv(env *ExpEnv) (string, error) { return exp.MarkdownReportEnv(env) }
