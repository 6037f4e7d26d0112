// Package glinda reimplements the Glinda static partitioning approach
// (Shen et al., HPCC 2014 — reference [10] of the paper): given a
// single kernel and a heterogeneous platform, it predicts the optimal
// CPU/GPU workload split and decides the best hardware configuration.
//
// The pipeline follows Fig. 1 of the paper:
//
//  1. Modeling: the optimal partitioning equalizes CPU and GPU
//     completion times. With β the GPU fraction, R_g / R_c the GPU /
//     CPU throughputs (elements per second), b the transfer bytes per
//     element and B the link bandwidth:
//
//     β·n/R_g + (b·β·n + c0)/B  =  (1-β)·n/R_c
//
//     which in the paper's two derived metrics — relative hardware
//     capability r = R_g/R_c and computation-to-transfer gap
//     g = R_g·b/B — solves to β* = (r - R_g·c0/(B·n)) / (1 + g + r).
//
//  2. Profiling: r, g are estimated from low-cost probe runs (a sample
//     chunk per device inside the simulator), never from the cost
//     model's ground truth.
//
//  3. Decision: pick Only-CPU, Only-GPU or CPU+GPU by checking whether
//     the predicted partition gives each processor enough useful work,
//     then round the GPU share up to a warp multiple (footnote 5).
package glinda

import (
	"fmt"
	"math"

	"heteropart/internal/device"
	"heteropart/internal/fault"
	"heteropart/internal/mem"
	"heteropart/internal/metrics"
	"heteropart/internal/rt"
	"heteropart/internal/sched"
	"heteropart/internal/task"
	"heteropart/internal/telemetry"
)

// Config tunes profiling and decision thresholds.
type Config struct {
	// SampleFrac is the fraction of the iteration space probed per
	// device (low-cost profiling). Default 0.02.
	SampleFrac float64
	// MinSample is the probe floor in elements. Default 256.
	MinSample int64
	// LowCut and HighCut are the Only-CPU / Only-GPU thresholds on
	// β*: below LowCut the GPU partition cannot amortize its fixed
	// overheads, above HighCut the CPU partition cannot keep a single
	// core usefully busy. Defaults 0.03 and 0.97.
	LowCut, HighCut float64
	// Metrics, when non-nil, receives per-kernel profiling gauges
	// (probe throughputs, effective bandwidth, probe counts).
	Metrics *metrics.Registry
	// Spans, when non-nil, receives one profile span per profiling
	// pass, parented under SpanParent.
	Spans *telemetry.Tracer
	// SpanParent is the span profiling spans attach to (normally the
	// strategy's plan span).
	SpanParent telemetry.SpanID
	// Faults, when non-nil, perturbs the profiling probes: schedules
	// with profile_noise faults make the partitioning decision see a
	// noisy platform while the measured run stays untouched (the
	// robustness-to-profiling-noise experiment). Execution-scope
	// faults never apply to probes.
	Faults *fault.Schedule
}

// Defaults fills zero fields with default values.
func (c Config) Defaults() Config {
	if c.SampleFrac <= 0 {
		c.SampleFrac = 0.02
	}
	if c.MinSample <= 0 {
		c.MinSample = 256
	}
	if c.LowCut <= 0 {
		c.LowCut = 0.03
	}
	if c.HighCut <= 0 {
		c.HighCut = 0.97
	}
	return c
}

// probeSize is the probe sample of an n-element iteration space:
// SampleFrac of it, at least MinSample elements, at most all n. c must
// have its defaults filled.
func (c Config) probeSize(n int64) int64 {
	return min(max(int64(c.SampleFrac*float64(n)), c.MinSample), n)
}

// Estimate holds the profiled quantities for one kernel on one
// (CPU, accelerator) pair.
type Estimate struct {
	// Rc is the whole-CPU throughput in elements/second (all m worker
	// threads together).
	Rc float64
	// Rg is the accelerator's kernel-execution throughput in
	// elements/second, excluding transfers.
	Rg float64
	// B is the effective link bandwidth in bytes/second (+Inf when
	// the kernel moves no data).
	B float64
	// InSlope and InConst model the input-transfer bytes of a GPU
	// partition of s elements as slope·s + const (the constant
	// captures broadcast inputs like MatrixMul's B matrix). These
	// transfers precede the kernel, inside the GPU's pipeline, and
	// overlap the CPU's work on its own partition.
	InSlope, InConst float64
	// OutSlope and OutConst model the written bytes flushed back to
	// the host at the closing taskwait. The flush happens after every
	// task has completed — the main thread is blocked — so it is a
	// serial tail, not overlappable work (the runtime's taskwait
	// semantics).
	OutSlope, OutConst float64
	// N is the full problem size the estimate was taken for.
	N int64
}

// Metrics returns the paper's two derived metrics: the relative
// hardware capability r and the computation-to-transfer gap g (over
// the full round-trip traffic).
func (e Estimate) Metrics() (r, g float64) {
	r = e.Rg / e.Rc
	if math.IsInf(e.B, 1) || e.B <= 0 {
		return r, 0
	}
	g = e.Rg * (e.InSlope + e.OutSlope) / e.B
	return r, g
}

// OptimalBeta solves the partitioning model for the GPU fraction β*:
// the GPU pipeline — input transfer, kernel execution, output
// writeback, which the runtime overlaps with the host's own
// computation in the final program region — balances against the CPU
// lane:
//
//	β·n/R_g + (b·β·n + c0)/B  =  (1-β)·n/R_c
//
// so β* = (r − R_g·c0/(B·n)) / (1 + g + r) with the paper's metrics
// r = R_g/R_c and g = R_g·b/B over the round-trip traffic b.
func (e Estimate) OptimalBeta() float64 {
	if e.Rc <= 0 && e.Rg <= 0 {
		return 0
	}
	if e.Rc <= 0 {
		return 1
	}
	if e.Rg <= 0 {
		return 0
	}
	r, g := e.Metrics()
	c0Term := 0.0
	if !math.IsInf(e.B, 1) && e.B > 0 && e.N > 0 {
		c0Term = e.Rg * (e.InConst + e.OutConst) / (e.B * float64(e.N))
	}
	beta := (r - c0Term) / (1 + g + r)
	return clamp01(beta)
}

// PredictTimes returns the modeled CPU lane and GPU pipeline (input
// transfer + kernel execution + writeback) times in seconds for a
// given β and problem size n.
func (e Estimate) PredictTimes(beta float64, n int64) (tc, tg float64) {
	beta = clamp01(beta)
	nc := (1 - beta) * float64(n)
	ng := beta * float64(n)
	if e.Rc > 0 {
		tc = nc / e.Rc
	} else if nc > 0 {
		tc = math.Inf(1)
	}
	if ng > 0 {
		if e.Rg > 0 {
			tg = ng / e.Rg
		} else {
			tg = math.Inf(1)
		}
		if !math.IsInf(e.B, 1) && e.B > 0 {
			tg += ((e.InSlope+e.OutSlope)*ng + e.InConst + e.OutConst) / e.B
		}
	}
	return tc, tg
}

// PredictMakespan evaluates the model: the slower of the two lanes.
func (e Estimate) PredictMakespan(beta float64, n int64) float64 {
	tc, tg := e.PredictTimes(beta, n)
	if tg > tc {
		return tg
	}
	return tc
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// HWConfig is the hardware-configuration decision.
type HWConfig int

const (
	// Hybrid uses CPU + GPU with workload partitioning.
	Hybrid HWConfig = iota
	// OnlyCPU runs the whole workload on the host.
	OnlyCPU
	// OnlyGPU runs the whole workload on the accelerator.
	OnlyGPU
)

// String names the configuration as the paper does.
func (h HWConfig) String() string {
	switch h {
	case OnlyCPU:
		return "Only-CPU"
	case OnlyGPU:
		return "Only-GPU"
	default:
		return "CPU+GPU"
	}
}

// Decision is the outcome of the Glinda pipeline for one kernel.
type Decision struct {
	Config HWConfig
	// Beta is the model's raw optimal GPU fraction.
	Beta float64
	// NG and NC are the final element counts after warp rounding
	// (NG + NC = N).
	NG, NC int64
	// R and G are the two derived metrics.
	R, G float64
	// Est is the underlying estimate.
	Est Estimate
}

// Decide turns an estimate into a practical decision for problem size n
// on the given accelerator device: the Only-CPU / Only-GPU thresholds,
// the device-memory capacity cap, and warp rounding (footnote 5).
func Decide(e Estimate, n int64, accel *device.Device, cfg Config) Decision {
	cfg = cfg.Defaults()
	beta := e.OptimalBeta()
	r, g := e.Metrics()
	d := Decision{Beta: beta, R: r, G: g, Est: e}

	// The accelerator partition must fit its memory. The per-element
	// device footprint is approximated by the transfer model (bytes in
	// + bytes out per element, plus the broadcast constants).
	maxElems := n
	perElem := e.InSlope + e.OutSlope
	if accel.MemCapacityGB > 0 && perElem > 0 {
		capBytes := accel.MemCapacityGB*1e9 - e.InConst - e.OutConst
		if capBytes < 0 {
			capBytes = 0
		}
		if fit := int64(capBytes / perElem); fit < maxElems {
			maxElems = fit
		}
	}

	switch {
	case beta <= cfg.LowCut:
		d.Config = OnlyCPU
		d.NG, d.NC = 0, n
	case beta >= cfg.HighCut && maxElems >= n:
		d.Config = OnlyGPU
		d.NG, d.NC = n, 0
	default:
		d.Config = Hybrid
		ng := int64(beta*float64(n) + 0.5)
		if ng > maxElems {
			ng = maxElems
		}
		ng = accel.RoundUpWarp(ng, maxElems)
		if ng <= 0 {
			d.Config = OnlyCPU
		}
		d.NG, d.NC = ng, n-ng
	}
	return d
}

// Profile measures Rc, Rg, B for kernel k on the platform by running
// probe instances inside the simulator: a CPU probe (the sample spread
// over all m worker threads) and an accelerator probe (one pinned
// instance on cold data, so the makespan splits into transfer + exec).
// The directory is Reset afterwards, so profiling leaves no footprint.
func Profile(plat *device.Platform, dir *mem.Directory, k *task.Kernel, accelID int, cfg Config) (Estimate, error) {
	cfg = cfg.Defaults()
	if accelID < 1 || accelID > len(plat.Accels) {
		return Estimate{}, fmt.Errorf("glinda: no accelerator %d", accelID)
	}
	span := cfg.Spans.Begin(cfg.SpanParent, telemetry.KindProfile, "profile "+k.Name)
	defer cfg.Spans.End(span)
	n := k.Size
	s := cfg.probeSize(n)
	if s <= 0 {
		return Estimate{}, fmt.Errorf("glinda: kernel %q has empty iteration space", k.Name)
	}

	est := Estimate{N: n, B: math.Inf(1)}

	// CPU probe: sample chunked over the m worker threads. The pieces
	// live on the stack for any thread count up to len(pieces).
	var pieces [64]mem.Interval
	var cpuPlan task.Plan
	for _, iv := range (mem.Interval{Hi: s}).AppendSplit(pieces[:0], plat.CPUThreads()) {
		cpuPlan.Submit(k, iv.Lo, iv.Hi, 0, -1)
	}
	cpuRes, err := rt.Execute(rt.Config{
		Platform: plat, Scheduler: sched.NewStatic(),
		Faults: fault.NewInjector(cfg.Faults, fault.ScopeProfile),
	}, &cpuPlan, dir)
	if err != nil {
		return Estimate{}, fmt.Errorf("glinda: CPU probe: %w", err)
	}
	dir.Reset()
	if cpuRes.Makespan > 0 {
		est.Rc = float64(s) / cpuRes.Makespan.Seconds()
	}

	// Accelerator probe on cold data.
	var gpuPlan task.Plan
	gpuPlan.Submit(k, 0, s, accelID, -1)
	gpuRes, err := rt.Execute(rt.Config{
		Platform: plat, Scheduler: sched.NewStatic(),
		Faults: fault.NewInjector(cfg.Faults, fault.ScopeProfile),
	}, &gpuPlan, dir)
	if err != nil {
		return Estimate{}, fmt.Errorf("glinda: accelerator probe: %w", err)
	}
	dir.Reset()
	exec := gpuRes.DeviceBusy[accelID]
	if exec > 0 {
		est.Rg = float64(s) / exec.Seconds()
	}
	// The probe's makespan decomposes into input transfer + execution
	// + output writeback, so the effective link bandwidth covers the
	// full round trip.
	xfer := gpuRes.Makespan - exec
	moved := gpuRes.HtoDBytes + gpuRes.DtoHBytes
	if moved > 0 && xfer > 0 {
		est.B = float64(moved) / xfer.Seconds()
	}

	// Transfer-bytes models from the kernel's declared accesses,
	// fitted through two sample points for slope and intercept:
	// inputs moved to the device, outputs flushed back.
	in1, out1 := accessBytes(k, s)
	in2, out2 := accessBytes(k, s/2)
	est.InSlope, est.InConst = fitBytes(s, in1, in2)
	est.OutSlope, est.OutConst = fitBytes(s, out1, out2)

	if r := cfg.Metrics; r != nil {
		r.Counter("glinda_profiles_total", "profiling passes executed").Inc()
		r.Gauge(metrics.Label("glinda_rc", "kernel", k.Name),
			"profiled whole-CPU throughput, elements/s").Set(est.Rc)
		r.Gauge(metrics.Label("glinda_rg", "kernel", k.Name),
			"profiled accelerator throughput, elements/s").Set(est.Rg)
		if !math.IsInf(est.B, 1) {
			r.Gauge(metrics.Label("glinda_bandwidth", "kernel", k.Name),
				"profiled effective link bandwidth, bytes/s").Set(est.B)
		}
		r.Gauge(metrics.Label("glinda_probe_elems", "kernel", k.Name),
			"probe sample size, elements").SetInt(s)
	}
	return est, nil
}

// fitBytes fits bytes(s) = slope*s + const through (s, b1) and
// (s/2, b2), clamping a negative intercept.
func fitBytes(s, b1, b2 int64) (slope, c float64) {
	if s < 2 {
		return float64(b1), 0
	}
	slope = float64(b1-b2) / float64(s-s/2)
	c = float64(b1) - slope*float64(s)
	if c < 0 {
		c = 0
	}
	return slope, c
}

// accessBytes totals the read (in) and written (out) payload of a
// partition [0, s) from the kernel's access declarations.
func accessBytes(k *task.Kernel, s int64) (in, out int64) {
	for _, a := range k.AccessesOf(0, s) {
		if a.Mode.Reads() {
			in += a.Buf.Bytes(a.Interval)
		}
		if a.Mode.Writes() {
			out += a.Buf.Bytes(a.Interval)
		}
	}
	return in, out
}

// Analyze is the whole Glinda pipeline for one kernel: profile, then
// decide. This is what SP-Single calls.
func Analyze(plat *device.Platform, dir *mem.Directory, k *task.Kernel, accelID int, cfg Config) (Decision, error) {
	est, err := Profile(plat, dir, k, accelID, cfg)
	if err != nil {
		return Decision{}, err
	}
	return Decide(est, k.Size, plat.Device(accelID), cfg), nil
}
