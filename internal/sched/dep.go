package sched

import (
	"heteropart/internal/metrics"
	"heteropart/internal/sim"
	"heteropart/internal/task"
)

// Dep is the DP-Dep policy: breadth-first scheduling from a central
// ready queue, with data-dependency-chain affinity — instances whose
// chain last ran on the requesting device are preferred, minimizing
// inter-device data transfers (Section III-C of the paper). It does not
// model device capability at all, which is exactly why it loses to
// DP-Perf on heterogeneous platforms (Proposition 1).
type Dep struct {
	overhead sim.Duration
	// chainHome remembers which device last executed each chain.
	chainHome map[int]int
	// noAffinity disables the dependency-chain tracking (ablation:
	// plain breadth-first), so chunks migrate freely between devices
	// across kernels.
	noAffinity bool

	// Telemetry handles (nil-safe; bound by SetMetrics).
	mAffinityHits *metrics.Counter
	mAffinityMiss *metrics.Counter
}

// NewDep returns a DP-Dep scheduler with the default decision overhead.
func NewDep() *Dep {
	return &Dep{overhead: DefaultDecisionOverhead, chainHome: make(map[int]int)}
}

// NewDepNoAffinity returns the ablated variant: breadth-first without
// dependency-chain affinity.
func NewDepNoAffinity() *Dep {
	d := NewDep()
	d.noAffinity = true
	return d
}

// Name implements Scheduler.
func (d *Dep) Name() string { return "DP-Dep" }

// SetMetrics implements MetricsSetter: count how often the
// dependency-chain affinity actually steered a pick (hits) versus fell
// back to plain breadth-first order (misses) — the telemetry that
// shows why DP-Dep keeps transfers low but ignores device capability.
func (d *Dep) SetMetrics(r *metrics.Registry) {
	d.mAffinityHits = r.Counter("sched_dep_affinity_hits_total",
		"picks that followed dependency-chain residency")
	d.mAffinityMiss = r.Counter("sched_dep_affinity_misses_total",
		"picks that fell back to breadth-first order")
}

// OnReady implements Scheduler: DP-Dep is a pull policy.
func (d *Dep) OnReady(*task.Instance, View) (int, bool) { return 0, false }

// OnIdle implements Scheduler: prefer an instance whose chain is
// resident on this device, else take the oldest ready instance
// (breadth-first order).
func (d *Dep) OnIdle(dev int, ready []*task.Instance, v View) *task.Instance {
	if len(ready) == 0 {
		return nil
	}
	// Only instances whose kernel runs on this device's kind are
	// candidates; the scans below skip the rest in place.
	kind := kindOf(v, dev)
	var oldest *task.Instance
	for _, in := range ready {
		if in.Kernel.RunsOn(kind) {
			oldest = in
			break
		}
	}
	if oldest == nil {
		return nil
	}
	if d.noAffinity {
		return oldest
	}
	for _, in := range ready {
		if in.Chain >= 0 && in.Kernel.RunsOn(kind) {
			if home, ok := d.chainHome[in.Chain]; ok && home == dev {
				d.mAffinityHits.Inc()
				return in
			}
		}
	}
	// Breadth-first fallback: oldest ready instance whose chain is not
	// claimed by another device; failing that, simply the oldest.
	d.mAffinityMiss.Inc()
	for _, in := range ready {
		if !in.Kernel.RunsOn(kind) {
			continue
		}
		if in.Chain < 0 {
			return in
		}
		if _, ok := d.chainHome[in.Chain]; !ok {
			return in
		}
	}
	return oldest
}

// kindOf resolves a device ID's kind through the view.
func kindOf(v View, dev int) (kind deviceKind) {
	for _, d := range v.Devices() {
		if d.ID == dev {
			return d.Kind
		}
	}
	return 0
}

// Placed implements Scheduler: record chain residency.
func (d *Dep) Placed(in *task.Instance, dev int) {
	if !d.noAffinity && in.Chain >= 0 {
		d.chainHome[in.Chain] = dev
	}
}

// Completed implements Scheduler (DP-Dep learns nothing).
func (d *Dep) Completed(*task.Instance, int, sim.Duration) {}

// Overhead implements Scheduler.
func (d *Dep) Overhead() sim.Duration { return d.overhead }
