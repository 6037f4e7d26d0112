package strategy

import (
	"heteropart/internal/apps"
	"heteropart/internal/classify"
	"heteropart/internal/device"
	"heteropart/internal/plan"
	"heteropart/internal/sched"
)

// DPDep is the DP-Dep strategy: dynamic partitioning with the
// breadth-first, dependency-chain-aware OmpSs scheduler. Usable for
// every class; blind to device capability (Section III-C).
type DPDep struct{}

// Name implements Strategy.
func (DPDep) Name() string { return "DP-Dep" }

// Applicable implements Strategy: all classes.
func (DPDep) Applicable(classify.Class, bool) bool { return true }

// Plan implements Strategy.
func (s DPDep) Plan(p *apps.Problem, plat *device.Platform, opts Options) (*plan.ExecutionPlan, error) {
	g := grid{m: opts.chunks(plat), pin: unpinned}
	return newPlan(s.Name(), p, plat, plan.SchedulerSpec{Policy: plan.PolicyDep}, g, nil)
}

// Run implements Strategy.
func (s DPDep) Run(p *apps.Problem, plat *device.Platform, opts Options) (*Outcome, error) {
	return runPlanned(s, p, plat, opts)
}

// DPPerf is the DP-Perf strategy: dynamic partitioning with the
// performance-aware scheduler. Usable for every class.
//
// The paper's measurements exclude DP-Perf's fixed profiling phase
// ("each device gets 3 task instances to make the runtime learn",
// Section IV-A3). The plan records that as Scheduler.Seeded: Execute
// runs a training execution (timing-only, discarded) to learn the
// per-kernel per-device rates, then the measured run starts from the
// trained profile. Options.NoSeed keeps the profiling phase inside the
// measurement instead.
type DPPerf struct{}

// Name implements Strategy.
func (DPPerf) Name() string { return "DP-Perf" }

// Applicable implements Strategy: all classes.
func (DPPerf) Applicable(classify.Class, bool) bool { return true }

// Plan implements Strategy.
func (s DPPerf) Plan(p *apps.Problem, plat *device.Platform, opts Options) (*plan.ExecutionPlan, error) {
	g := grid{m: opts.chunks(plat), pin: unpinned}
	spec := plan.SchedulerSpec{
		Policy:          plan.PolicyPerf,
		Seeded:          !opts.NoSeed,
		WarmupInstances: sched.WarmupInstances,
	}
	return newPlan(s.Name(), p, plat, spec, g, nil)
}

// Run implements Strategy.
func (s DPPerf) Run(p *apps.Problem, plat *device.Platform, opts Options) (*Outcome, error) {
	return runPlanned(s, p, plat, opts)
}
