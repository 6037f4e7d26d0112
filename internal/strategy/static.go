package strategy

import (
	"fmt"

	"heteropart/internal/apierr"
	"heteropart/internal/apps"
	"heteropart/internal/classify"
	"heteropart/internal/device"
	"heteropart/internal/glinda"
	"heteropart/internal/mem"
	"heteropart/internal/plan"
	"heteropart/internal/task"
)

// staticSpec is the scheduler of every fully pinned plan.
var staticSpec = plan.SchedulerSpec{Policy: plan.PolicyStatic}

// SPSingle is the SP-Single strategy: Glinda determines one static
// partitioning for the (single) kernel; for SK-Loop the partitioning
// of one iteration is reused for all iterations (Section III-C).
type SPSingle struct{}

// Name implements Strategy.
func (SPSingle) Name() string { return "SP-Single" }

// Applicable implements Strategy: SK-One and SK-Loop.
func (SPSingle) Applicable(cls classify.Class, _ bool) bool {
	return cls == classify.SKOne || cls == classify.SKLoop
}

// Plan implements Strategy. On platforms with several accelerators the
// partitioning generalizes to Glinda's water-filling split (the
// "one or more accelerators, identical or non-identical" claim of
// Section II-A); on imbalanced iteration spaces it switches to the
// weighted pipeline (Glinda ICS'14).
func (s SPSingle) Plan(p *apps.Problem, plat *device.Platform, opts Options) (*plan.ExecutionPlan, error) {
	if err := needAccel(s.Name(), plat); err != nil {
		return nil, err
	}
	if len(p.Unique) != 1 {
		return nil, fmt.Errorf("strategy: SP-Single needs a single kernel, %s has %d", p.AppName, len(p.Unique))
	}
	k := p.Unique[0]
	if len(plat.Accels) <= 1 && glinda.ImbalanceRatio(k, imbalanceSample(k)) > ImbalanceThreshold {
		return s.planImbalanced(p, plat, opts)
	}
	ests, err := glinda.ProfileAll(plat, p.Dir, k, opts.glindaCfg())
	if err != nil {
		return nil, err
	}
	shares, dec, err := decideShares(plat, k.Size, ests)
	if err != nil {
		return nil, err
	}
	var decs map[string]glinda.Decision
	if len(plat.Accels) == 1 {
		// A water-filling split is recorded by its shares alone.
		decs = map[string]glinda.Decision{"": dec}
	}
	g := grid{m: opts.chunks(plat), shares: func(apps.Phase) []int64 { return shares }, pin: onHost}
	return newPlan(s.Name(), p, plat, staticSpec, g, decs)
}

// Run implements Strategy.
func (s SPSingle) Run(p *apps.Problem, plat *device.Platform, opts Options) (*Outcome, error) {
	return runPlanned(s, p, plat, opts)
}

// needAccel refuses a platform without an accelerator to a strategy
// that places work on one, with an error wrapping
// apierr.ErrPlatformInvalid.
func needAccel(name string, plat *device.Platform) error {
	if len(plat.Accels) == 0 {
		return fmt.Errorf("strategy: %s needs an accelerator: %w", name, apierr.ErrPlatformInvalid)
	}
	return nil
}

// ImbalanceThreshold is the head/tail per-element cost ratio above
// which SP-Single switches to the weighted pipeline (Glinda ICS'14).
const ImbalanceThreshold = 1.5

func imbalanceSample(k *task.Kernel) int64 {
	s := k.Size / 20
	if s < 1 {
		s = 1
	}
	return s
}

// planImbalanced partitions an imbalanced single kernel: the
// accelerator takes the weight-balanced prefix, and the host range is
// cut into m weight-equal chunks so every worker thread finishes
// together (the ICS'14 "matching imbalanced workloads" pipeline).
func (s SPSingle) planImbalanced(p *apps.Problem, plat *device.Platform, opts Options) (*plan.ExecutionPlan, error) {
	k := p.Unique[0]
	dec, err := glinda.AnalyzeImbalanced(plat, p.Dir, k, 1, opts.glindaCfg())
	if err != nil {
		return nil, err
	}
	m := opts.chunks(plat)
	shares := []int64{dec.NG}
	g := grid{
		m:      m,
		shares: func(apps.Phase) []int64 { return shares },
		pin:    onHost,
		cut:    func(rest mem.Interval) []mem.Interval { return glinda.CutWeighted(k, rest.Lo, rest.Hi, m) },
	}
	return newPlan(s.Name(), p, plat, staticSpec, g, map[string]glinda.Decision{"": dec})
}

// decideShares splits one kernel's size elements between the host and
// the accelerators, from ests[i], the kernel's estimate for accelerator
// i+1: glinda.Decide's cut-offs and warp rounding on one accelerator,
// water-filling across several. It returns the accelerator shares
// (index i for accelerator i+1) and the decision that summarizes them.
func decideShares(plat *device.Platform, size int64, ests []glinda.Estimate) ([]int64, glinda.Decision, error) {
	if len(ests) == 1 {
		dec := glinda.Decide(ests[0], size, plat.Device(1))
		return []int64{dec.NG}, dec, nil
	}
	split, err := glinda.SolveMulti(ests[0].Rc, ests, size)
	if err != nil {
		return nil, glinda.Decision{}, err
	}
	// Warp-round every accelerator's share; the host absorbs the slack.
	shares := split[1:]
	var accel int64
	for i := range shares {
		shares[i] = plat.Accels[i].RoundUpWarp(shares[i], size-accel)
		accel += shares[i]
	}
	dec := glinda.Decision{Config: glinda.Hybrid, NG: accel, NC: size - accel}
	switch {
	case accel == 0:
		dec.Config = glinda.OnlyCPU
	case accel == size:
		dec.Config = glinda.OnlyGPU
	}
	if size > 0 {
		dec.Beta = float64(accel) / float64(size)
	}
	return shares, dec, nil
}

// SPUnified is the SP-Unified strategy for MK-Seq and MK-Loop: all
// kernels are regarded as one fused kernel sharing a single
// partitioning point, so data stays resident per device with one
// transfer in before the first kernel and one out after the last.
// For MK-Loop the partitioning is determined for one iteration and the
// transfer term is excluded (all iterations but the first and last
// move no data — Section IV-B4).
type SPUnified struct{}

// Name implements Strategy.
func (SPUnified) Name() string { return "SP-Unified" }

// Applicable implements Strategy: the multi-kernel sequence classes.
func (SPUnified) Applicable(cls classify.Class, _ bool) bool {
	return cls == classify.MKSeq || cls == classify.MKLoop
}

// Plan implements Strategy. On several accelerators the fused profile
// gives one estimate per accelerator and water-filling splits the one
// shared partitioning point across all of them.
func (s SPUnified) Plan(p *apps.Problem, plat *device.Platform, opts Options) (*plan.ExecutionPlan, error) {
	if p.AtomicPhases {
		return nil, fmt.Errorf("strategy: SP-Unified cannot partition atomic-phase %s", p.AppName)
	}
	if err := needAccel(s.Name(), plat); err != nil {
		return nil, err
	}
	steady := p.Class() == classify.MKLoop
	ests, err := glinda.ProfileFusedAll(plat, p.Dir, p.Unique, opts.glindaCfg())
	if err != nil {
		return nil, err
	}
	if steady {
		// Steady-state iterations move no data: drop the transfer terms
		// from the model (Section IV-B4 — "the data transfer is not
		// profiled, because all the iterations except the first and the
		// last ones do not have any data transfer").
		for i := range ests {
			ests[i].InSlope, ests[i].InConst = 0, 0
			ests[i].OutSlope, ests[i].OutConst = 0, 0
		}
	}
	shares, dec, err := decideShares(plat, p.Unique[0].Size, ests)
	if err != nil {
		return nil, err
	}
	g := grid{m: opts.chunks(plat), shares: func(apps.Phase) []int64 { return shares }, pin: onHost}
	return newPlan(s.Name(), p, plat, staticSpec, g, map[string]glinda.Decision{"": dec})
}

// Run implements Strategy.
func (s SPUnified) Run(p *apps.Problem, plat *device.Platform, opts Options) (*Outcome, error) {
	return runPlanned(s, p, plat, opts)
}

// SPVaried is the SP-Varied strategy for MK-Seq and MK-Loop: Glinda
// runs per kernel, each kernel gets its own partitioning point, and a
// global synchronization point follows every kernel so each kernel's
// output is assembled at the host before the next starts — mandatory
// for using this strategy, and the source of its transfer overhead
// when the application did not need synchronization (Section III-C).
type SPVaried struct{}

// Name implements Strategy.
func (SPVaried) Name() string { return "SP-Varied" }

// Applicable implements Strategy: the multi-kernel sequence classes.
func (SPVaried) Applicable(cls classify.Class, _ bool) bool {
	return cls == classify.MKSeq || cls == classify.MKLoop
}

// Plan implements Strategy. On several accelerators every kernel is
// split by water-filling independently.
func (s SPVaried) Plan(p *apps.Problem, plat *device.Platform, opts Options) (*plan.ExecutionPlan, error) {
	if p.AtomicPhases {
		return nil, fmt.Errorf("strategy: SP-Varied cannot partition atomic-phase %s", p.AppName)
	}
	if err := needAccel(s.Name(), plat); err != nil {
		return nil, err
	}
	decs := make(map[string]glinda.Decision, len(p.Unique))
	splits := make(map[string][]int64, len(p.Unique))
	for _, k := range p.Unique {
		ests, err := glinda.ProfileAll(plat, p.Dir, k, opts.glindaCfg())
		if err != nil {
			return nil, err
		}
		shares, dec, err := decideShares(plat, k.Size, ests)
		if err != nil {
			return nil, err
		}
		splits[k.Name], decs[k.Name] = shares, dec
	}
	force := true
	g := grid{
		m:      opts.chunks(plat),
		shares: func(ph apps.Phase) []int64 { return splits[ph.Kernel.Name] },
		pin:    onHost,
		sync:   &force,
	}
	return newPlan(s.Name(), p, plat, staticSpec, g, decs)
}

// Run implements Strategy.
func (s SPVaried) Run(p *apps.Problem, plat *device.Platform, opts Options) (*Outcome, error) {
	return runPlanned(s, p, plat, opts)
}

// OnlyGPU runs the whole workload on the accelerator (the paper's
// Only-GPU reference: the kernel in OpenCL on the GPU).
type OnlyGPU struct{}

// Name implements Strategy.
func (OnlyGPU) Name() string { return "Only-GPU" }

// Applicable implements Strategy: a reference configuration for every
// class.
func (OnlyGPU) Applicable(classify.Class, bool) bool { return true }

// Plan implements Strategy.
func (s OnlyGPU) Plan(p *apps.Problem, plat *device.Platform, opts Options) (*plan.ExecutionPlan, error) {
	if err := needAccel(s.Name(), plat); err != nil {
		return nil, err
	}
	var whole [1]int64 // the grid reads a phase's shares before asking for the next
	g := grid{
		m: opts.chunks(plat),
		shares: func(ph apps.Phase) []int64 {
			whole[0] = ph.Kernel.Size
			return whole[:]
		},
		pin: onHost,
	}
	return newPlan(s.Name(), p, plat, staticSpec, g, nil)
}

// Run implements Strategy.
func (s OnlyGPU) Run(p *apps.Problem, plat *device.Platform, opts Options) (*Outcome, error) {
	return runPlanned(s, p, plat, opts)
}

// OnlyCPU runs the whole workload on the host's worker threads (the
// paper's Only-CPU reference: OmpSs on the CPU).
type OnlyCPU struct{}

// Name implements Strategy.
func (OnlyCPU) Name() string { return "Only-CPU" }

// Applicable implements Strategy: a reference configuration for every
// class.
func (OnlyCPU) Applicable(classify.Class, bool) bool { return true }

// Plan implements Strategy.
func (s OnlyCPU) Plan(p *apps.Problem, plat *device.Platform, opts Options) (*plan.ExecutionPlan, error) {
	g := grid{m: opts.chunks(plat), pin: onHost}
	return newPlan(s.Name(), p, plat, staticSpec, g, nil)
}

// Run implements Strategy.
func (s OnlyCPU) Run(p *apps.Problem, plat *device.Platform, opts Options) (*Outcome, error) {
	return runPlanned(s, p, plat, opts)
}
