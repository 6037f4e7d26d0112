// Package sched implements the runtime's pluggable scheduling policies.
//
// Two models coexist, matching the OmpSs schedulers the paper uses:
//
//   - pull (breadth-first): ready instances wait in a central queue and
//     idle executors take the next one, with data-dependency-chain
//     affinity (DP-Dep);
//   - push (performance-aware): each instance is assigned on readiness
//     to the device estimated to finish it earliest, based on per-kernel
//     per-device rates learned from completed instances (DP-Perf, after
//     Planas et al., IPDPS 2013).
//
// A policy participates through both hooks; it uses one and ignores the
// other.
package sched

import (
	"heteropart/internal/device"
	"heteropart/internal/metrics"
	"heteropart/internal/sim"
	"heteropart/internal/task"
	"heteropart/internal/telemetry"
)

// View gives policies read access to runtime state.
type View interface {
	// Now is the current virtual time.
	Now() sim.Time
	// Devices lists the platform devices, host first. The slice is
	// shared for the whole execution: policies read it and must not
	// modify it.
	Devices() []*device.Device
	// QueuedOn reports how many instances are queued on (assigned to
	// but not started on) a device.
	QueuedOn(dev int) int
	// LinkOf returns the host link of an accelerator (data-aware
	// policies estimate transfer costs with it).
	LinkOf(dev int) device.Link
}

// Scheduler decides where unpinned task instances run.
type Scheduler interface {
	// Name identifies the policy in traces and reports.
	Name() string

	// OnReady offers a newly ready instance for immediate (push)
	// assignment. Return (dev, true) to bind it to a device queue, or
	// (_, false) to leave it in the central ready queue.
	OnReady(in *task.Instance, v View) (int, bool)

	// OnIdle lets a central-queue (pull) policy pick an instance for
	// an idle device. ready is in readiness order; return nil to
	// leave the device idle. The returned instance must be an element
	// of ready.
	OnIdle(dev int, ready []*task.Instance, v View) *task.Instance

	// Placed notifies that an instance was bound to a device (by this
	// policy or by pinning).
	Placed(in *task.Instance, dev int)

	// Completed reports the measured wall span of a finished
	// instance, from dispatch to completion: decision overhead, the
	// instance's input transfers and the kernel execution. Output
	// writebacks happen later (at a flush or a consumer's read) and
	// are attributed to no instance — the source of DP-Perf's GPU
	// overestimation on writeback-heavy kernels (Section IV-B1).
	Completed(in *task.Instance, dev int, took sim.Duration)

	// Overhead is the virtual cost of one scheduling decision.
	Overhead() sim.Duration
}

// MetricsSetter is implemented by policies that export decision
// telemetry. The runtime calls SetMetrics once per execution, before
// any scheduling hook, when observability is enabled; policies resolve
// their instruments there and report through nil-safe handles, so an
// uninstrumented run pays nothing.
type MetricsSetter interface {
	SetMetrics(*metrics.Registry)
}

// SpanSetter is implemented by policies that emit telemetry spans
// (e.g. DP-Perf's warm-up span). The runtime calls SetSpans once per
// execution, before any scheduling hook, when span telemetry is
// enabled; the tracer's methods are nil-safe, so policies record
// unconditionally through it.
type SpanSetter interface {
	SetSpans(tr *telemetry.Tracer, parent telemetry.SpanID)
}

// DefaultDecisionOverhead models one OmpSs scheduling decision: queue
// locking, dependence bookkeeping and device-queue handling.
const DefaultDecisionOverhead = 5 * sim.Microsecond

// deviceKind aliases device.Kind for the policies' helpers.
type deviceKind = device.Kind
