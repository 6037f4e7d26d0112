package strategy

import (
	"fmt"

	"heteropart/internal/apps"
	"heteropart/internal/classify"
	"heteropart/internal/device"
	"heteropart/internal/glinda"
	"heteropart/internal/plan"
)

// ConvertRatio implements the Discussion-section recipe for making an
// already-dynamic implementation "behave" like static partitioning
// (Section V): convert a static partitioning ratio into a
// task-assignment ratio over m equal task instances — l instances to
// the GPU, k = m-l to the CPU.
func ConvertRatio(beta float64, m int) (cpuInstances, gpuInstances int) {
	if m < 1 {
		return 0, 0
	}
	if beta < 0 {
		beta = 0
	}
	if beta > 1 {
		beta = 1
	}
	l := int(beta*float64(m) + 0.5)
	return m - l, l
}

// DPConverted is the Section-V conversion applied end to end: keep the
// dynamic implementation's m equal task instances, but pin the first l
// of each kernel to the GPU and the remaining k to the CPU according
// to Glinda's ratio. The application gets a close-to-optimal
// partitioning with minimal manual effort — slightly below true SP-*
// because the chunk grid quantizes the ratio.
type DPConverted struct{}

// Name implements Strategy.
func (DPConverted) Name() string { return "DP-Converted" }

// Applicable implements Strategy: anywhere a static strategy applies.
func (DPConverted) Applicable(cls classify.Class, _ bool) bool {
	return cls != classify.MKDAG
}

// Plan implements Strategy.
func (s DPConverted) Plan(p *apps.Problem, plat *device.Platform, opts Options) (*plan.ExecutionPlan, error) {
	if p.AtomicPhases {
		return nil, fmt.Errorf("strategy: DP-Converted cannot partition atomic-phase %s", p.AppName)
	}
	if err := needAccel(s.Name(), plat); err != nil {
		return nil, err
	}
	// Step 1: the static ratio, from the fused model (multi-kernel)
	// or the single kernel.
	var est glinda.Estimate
	var err error
	if len(p.Unique) == 1 {
		est, err = glinda.Profile(plat, p.Dir, p.Unique[0], 1, opts.glindaCfg())
	} else {
		est, err = glinda.ProfileFused(plat, p.Dir, p.Unique, 1, opts.glindaCfg())
	}
	if err != nil {
		return nil, err
	}
	dec := glinda.Decide(est, p.Unique[0].Size, plat.Device(1))

	// Step 2: ratio -> instance counts.
	m := opts.chunks(plat)
	_, l := ConvertRatio(dec.Beta, m)

	// Step 3: pin the instance grid accordingly.
	g := grid{m: m, pin: func(_ apps.Phase, piece int) int {
		if piece < l {
			return 1
		}
		return 0
	}}
	return newPlan(s.Name(), p, plat, staticSpec, g, map[string]glinda.Decision{"": dec})
}

// Run implements Strategy.
func (s DPConverted) Run(p *apps.Problem, plat *device.Platform, opts Options) (*Outcome, error) {
	return runPlanned(s, p, plat, opts)
}
