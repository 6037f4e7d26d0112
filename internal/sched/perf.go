package sched

import (
	"heteropart/internal/device"
	"heteropart/internal/metrics"
	"heteropart/internal/sim"
	"heteropart/internal/task"
	"heteropart/internal/telemetry"
)

// WarmupInstances is the fixed profiling phase of DP-Perf: each device
// receives this many instances of each kernel before the
// performance-aware policy engages (Section IV-A3 of the paper).
const WarmupInstances = 3

// kernelDev keys a profile snapshot by kernel name and device ID.
type kernelDev struct {
	kernel string
	dev    int
}

type rateEst struct {
	samples int
	// nsPerUnit is the running mean execution rate per size unit
	// (access bytes when the kernel declares accesses, else elements).
	nsPerUnit float64
}

// perfKernel is the policy's state for one kernel, identified by name:
// what it knows of the kernel on each device, indexed by device ID.
type perfKernel struct {
	name string
	// k is the last Kernel value resolved to this state, matched by
	// pointer before falling back to the name.
	k    *task.Kernel
	devs []perfDev
}

// perfDev is what the policy knows of one kernel on one device: the
// learned rate and the placements made there.
type perfDev struct {
	rate     rateEst
	assigned int
}

// on returns the kernel's state on dev, growing the per-device slice
// to cover it.
func (pk *perfKernel) on(dev int) *perfDev {
	if dev >= len(pk.devs) {
		pk.devs = append(pk.devs, make([]perfDev, dev+1-len(pk.devs))...)
	}
	return &pk.devs[dev]
}

// estimate returns the predicted wall span on dev of an instance of
// the given size from the learned rate.
func (pk *perfKernel) estimate(dev int, size float64) sim.Duration {
	r := pk.on(dev).rate
	if r.samples == 0 {
		return 0 // unknown device looks free: exploration
	}
	return sim.Duration(r.nsPerUnit * size)
}

// horizon is a device's estimated completion horizon. A device never
// placed on has none (set is false): SyncClock leaves it alone, and
// its first placement starts from 0, not from the current time.
type horizon struct {
	until sim.Time
	set   bool
}

// Perf is the DP-Perf policy: a performance-aware push scheduler
// (after Planas et al., IPDPS 2013). For each kernel it learns how
// fast each device processes a partition — from the measured durations
// reported by the runtime: dispatch-to-completion wall time on an
// accelerator (attributing a task's *input* transfers to the task),
// dedicated-equivalent service time on the processor-sharing host —
// keeps an estimated busy horizon per device, and assigns each newly
// ready instance to the device that would finish it earliest.
//
// Because output data written on a device is only moved back at a
// later flush, that cost is attributed to no task: the policy
// systematically overestimates devices whose real cost is
// writeback-heavy. The paper observes exactly this bias ("DP-Perf
// overestimates the GPU capability", Section IV-B1).
type Perf struct {
	overhead sim.Duration
	// kernels holds the rates and warm-up placement counts of every
	// kernel seen or seeded, a handful per run.
	kernels []*perfKernel
	// horizons holds the busy horizon per device ID.
	horizons []horizon
	// blind disables the data-aware writeback prediction (ablation).
	blind bool
	// rr rotates warm-up placements deterministically.
	rr int
	// devs and starving are OnReady's scratch, reused across calls.
	devs     []*device.Device
	starving []int

	// Telemetry handles (nil-safe; bound by SetMetrics).
	mWarmup   *metrics.Counter
	mDeferred *metrics.Counter
	mPredErr  *metrics.Histogram

	// Span telemetry (nil-safe; bound by SetSpans): the warm-up span
	// covers the profiling phase, from the first ready instance to the
	// first rate-based placement.
	spTr        *telemetry.Tracer
	spParent    telemetry.SpanID
	warmStart   sim.Time
	warmStarted bool
	warmDone    bool
}

// NewPerf returns a DP-Perf scheduler with the default decision
// overhead and an empty profile.
func NewPerf() *Perf {
	return &Perf{overhead: DefaultDecisionOverhead}
}

// kernel resolves k to its state: by pointer first, then by name,
// creating the state on first sight.
func (p *Perf) kernel(k *task.Kernel) *perfKernel {
	for _, pk := range p.kernels {
		if pk.k == k {
			return pk
		}
	}
	pk := p.named(k.Name)
	pk.k = k
	return pk
}

// named returns the state of the kernel called name, creating it.
func (p *Perf) named(name string) *perfKernel {
	for _, pk := range p.kernels {
		if pk.name == name {
			return pk
		}
	}
	pk := &perfKernel{name: name}
	p.kernels = append(p.kernels, pk)
	return pk
}

// NewPerfBlind returns the ablated variant: rate learning only, no
// data-aware writeback prediction.
func NewPerfBlind() *Perf {
	p := NewPerf()
	p.blind = true
	return p
}

// Name implements Scheduler.
func (p *Perf) Name() string { return "DP-Perf" }

// SetMetrics implements MetricsSetter: export the policy's decision
// telemetry — warm-up placements, profiling-gate deferrals, and the
// distribution of the rate model's prediction error (the quantity
// behind the paper's "DP-Perf overestimates the GPU capability"
// observation, Section IV-B1).
func (p *Perf) SetMetrics(r *metrics.Registry) {
	p.mWarmup = r.Counter("sched_perf_warmup_total",
		"warm-up (profiling-phase) placements")
	p.mDeferred = r.Counter("sched_perf_deferred_total",
		"instances deferred by the profiling gate")
	p.mPredErr = r.Histogram("sched_perf_prediction_error_pct",
		"abs relative error of predicted vs measured instance span, percent")
}

// SetSpans implements SpanSetter: the policy emits a warmup span
// covering its profiling phase.
func (p *Perf) SetSpans(tr *telemetry.Tracer, parent telemetry.SpanID) {
	p.spTr, p.spParent = tr, parent
}

// OnReady implements Scheduler: pick the earliest-finishing device.
func (p *Perf) OnReady(in *task.Instance, v View) (int, bool) {
	if !p.warmStarted {
		p.warmStarted = true
		p.warmStart = v.Now()
	}
	// Only devices whose kind implements the kernel are candidates
	// (the OmpSs "implements" clause).
	devs := p.devs[:0]
	for _, d := range v.Devices() {
		if in.Kernel.RunsOn(d.Kind) {
			devs = append(devs, d)
		}
	}
	p.devs = devs
	if len(devs) == 0 {
		return 0, false // nothing can run it; the runtime reports the plan bug
	}
	pk := p.kernel(in.Kernel)
	// Warm-up: any device short of profile samples for this kernel
	// gets the instance (round-robin across the starved devices).
	starving := p.starving[:0]
	for _, d := range devs {
		if pk.on(d.ID).assigned < WarmupInstances {
			starving = append(starving, d.ID)
		}
	}
	p.starving = starving
	if len(starving) > 0 {
		dev := starving[p.rr%len(starving)]
		p.rr++
		p.mWarmup.Inc()
		return dev, true
	}

	// Profiling gate: until every device has at least one measured
	// completion of this kernel, defer further instances (the runtime
	// re-offers them after each completion). This is the "fixed
	// profiling phase" of Section IV-A3: the policy refuses to commit
	// the bulk of the work on guesses.
	for _, d := range devs {
		if pk.on(d.ID).rate.samples == 0 {
			p.mDeferred.Inc()
			return 0, false
		}
	}

	// The profiling gate just passed for this instance: the first time
	// that happens, the warm-up phase is over.
	if !p.warmDone {
		p.warmDone = true
		p.spTr.Emit(p.spParent, telemetry.KindWarmup, "perf-warmup", p.warmStart, v.Now())
	}

	// Earliest finish wins; exact ties keep the earlier candidate.
	// Candidates come from v.Devices() in ascending device-ID order,
	// so equal-speed devices break ties deterministically toward the
	// lowest ID — the placement cannot depend on map iteration or any
	// other unstable order, which keeps N-accelerator runs
	// reproducible (and cacheable) across processes.
	best, bestFinish := -1, sim.Time(0)
	size := sizeOf(in)
	for _, d := range devs {
		est := pk.estimate(d.ID, size) + p.writebackCost(in, d.ID, v)
		start := v.Now()
		if d.ID < len(p.horizons) && p.horizons[d.ID].until > start {
			start = p.horizons[d.ID].until
		}
		finish := start + est
		if best == -1 || finish < bestFinish {
			best, bestFinish = d.ID, finish
		}
	}
	return best, true
}

// sizeOf measures an instance for rate normalization: the bytes its
// accesses touch — a quantity the runtime legitimately knows from the
// task annotations, and one that tracks real cost even when the
// iteration space is imbalanced (packed triangular data). Kernels
// without accesses fall back to element counts.
func sizeOf(in *task.Instance) float64 {
	var bytes int64
	for _, a := range in.Accesses {
		bytes += a.Buf.Bytes(a.Interval)
	}
	if bytes > 0 {
		return float64(bytes)
	}
	return float64(in.Elems())
}

// writebackCost predicts the device-to-host cost of the data the
// instance writes on a non-host device — the data-aware component of
// the Planas scheduler: learned rates only see transfers that happened
// on an instance's own critical path, while written data is flushed
// later, so the policy prices it from the access declarations.
func (p *Perf) writebackCost(in *task.Instance, dev int, v View) sim.Duration {
	if dev == 0 || p.blind {
		return 0
	}
	var bytes int64
	for _, a := range in.Accesses {
		if a.Mode.Writes() {
			bytes += a.Buf.Bytes(a.Interval)
		}
	}
	if bytes == 0 {
		return 0
	}
	return v.LinkOf(dev).TransferTime(bytes, false)
}

// OnIdle implements Scheduler: DP-Perf never uses the central queue.
func (p *Perf) OnIdle(int, []*task.Instance, View) *task.Instance { return nil }

// Placed implements Scheduler: advance the device's busy horizon by
// the full estimate. This is exact for both executor models: a serial
// accelerator works through its queue one instance at a time, and an
// m-way processor-sharing host finishes c equal chunks of demand D at
// time c·D (each runs at 1/c speed), so the (c+1)th lands at (c+1)·D.
func (p *Perf) Placed(in *task.Instance, dev int) {
	pk := p.kernel(in.Kernel)
	pk.on(dev).assigned++
	if dev >= len(p.horizons) {
		p.horizons = append(p.horizons, make([]horizon, dev+1-len(p.horizons))...)
	}
	h := &p.horizons[dev]
	h.set = true
	h.until += pk.estimate(dev, sizeOf(in))
}

// Completed implements Scheduler: fold the measured rate into the
// running mean, recording how far the pre-completion prediction was
// off first (telemetry for tuning the rate model).
func (p *Perf) Completed(in *task.Instance, dev int, took sim.Duration) {
	size := sizeOf(in)
	if size <= 0 {
		return
	}
	pk := p.kernel(in.Kernel)
	if p.mPredErr != nil && took > 0 {
		if est := pk.estimate(dev, size); est > 0 {
			diff := float64(est - took)
			if diff < 0 {
				diff = -diff
			}
			p.mPredErr.Observe(int64(100 * diff / float64(took)))
		}
	}
	r := &pk.on(dev).rate
	obs := float64(took) / size
	r.samples++
	r.nsPerUnit += (obs - r.nsPerUnit) / float64(r.samples)
}

// Overhead implements Scheduler.
func (p *Perf) Overhead() sim.Duration { return p.overhead }

// SyncClock clamps all busy horizons to the given time; the runtime
// calls this as virtual time advances so stale horizons do not
// accumulate error.
func (p *Perf) SyncClock(now sim.Time) {
	for d, h := range p.horizons {
		if h.set && h.until < now {
			p.horizons[d].until = now
		}
	}
}

// ProfileSnapshot is a trained DP-Perf profile that can seed another
// run. The paper excludes the fixed profiling phase from its
// measurements; experiments reproduce that by training a throwaway run
// and seeding the measured one.
type ProfileSnapshot struct {
	rates    map[kernelDev]rateEst
	assigned map[kernelDev]int
}

// Snapshot captures the learned rates.
func (p *Perf) Snapshot() ProfileSnapshot {
	s := ProfileSnapshot{rates: make(map[kernelDev]rateEst), assigned: make(map[kernelDev]int)}
	for _, pk := range p.kernels {
		for dev, d := range pk.devs {
			if d.rate.samples > 0 {
				s.rates[kernelDev{pk.name, dev}] = d.rate
			}
			if d.assigned > 0 {
				s.assigned[kernelDev{pk.name, dev}] = d.assigned
			}
		}
	}
	return s
}

// Seed installs a previously captured profile, marking warm-up as
// already done for the covered kernel/device pairs.
func (p *Perf) Seed(s ProfileSnapshot) {
	for k, r := range s.rates {
		p.named(k.kernel).on(k.dev).rate = r
	}
	for k, n := range s.assigned {
		d := p.named(k.kernel).on(k.dev)
		d.assigned = max(d.assigned, n)
	}
}
