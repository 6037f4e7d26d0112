package strategy

import (
	"fmt"

	"heteropart/internal/apps"
	"heteropart/internal/classify"
	"heteropart/internal/device"
	"heteropart/internal/plan"
	"heteropart/internal/sched"
	"heteropart/internal/task"
)

// DPRefinedDAG explores the paper's future-work direction for the
// MK-DAG class (Section VII: "refine the classification of MK-DAG
// applications for a better selection of their preferred
// partitioning", and Section III-C: "It may be possible to apply
// static partitioning to certain kernel(s)"): selected kernels are
// statically mapped to a device while the rest stay under the
// performance-aware dynamic scheduler. As the paper notes, this "may
// or may not bring in performance improvement (which is
// application-specific)" — the dagrefine experiment measures it.
type DPRefinedDAG struct {
	// Pins maps kernel names to device IDs; unlisted kernels are
	// scheduled dynamically.
	Pins map[string]int
}

// Name implements Strategy.
func (DPRefinedDAG) Name() string { return "DP-Refined" }

// Applicable implements Strategy: the MK-DAG class only.
func (DPRefinedDAG) Applicable(cls classify.Class, _ bool) bool {
	return cls == classify.MKDAG
}

// Plan implements Strategy. DAG phases order through the dependency
// graph, so the plan carries no intermediate barriers.
func (s DPRefinedDAG) Plan(p *apps.Problem, plat *device.Platform, opts Options) (*plan.ExecutionPlan, error) {
	if !p.AtomicPhases {
		return nil, fmt.Errorf("strategy: DP-Refined targets atomic-phase DAG problems, %s is chunkable", p.AppName)
	}
	for k, dev := range s.Pins {
		if dev < 0 || dev > len(plat.Accels) {
			return nil, fmt.Errorf("strategy: kernel %q pinned to unknown device %d", k, dev)
		}
	}
	noSync := false
	g := grid{sync: &noSync, pin: func(ph apps.Phase, _ int) int {
		if dev, ok := s.Pins[ph.Kernel.Name]; ok {
			return dev
		}
		return task.Unpinned
	}}
	spec := plan.SchedulerSpec{
		Policy:          plan.PolicyPerf,
		Seeded:          !opts.NoSeed,
		WarmupInstances: sched.WarmupInstances,
	}
	return newPlan(s.Name(), p, plat, spec, g, nil)
}

// Run implements Strategy.
func (s DPRefinedDAG) Run(p *apps.Problem, plat *device.Platform, opts Options) (*Outcome, error) {
	return runPlanned(s, p, plat, opts)
}
