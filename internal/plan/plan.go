// Package plan defines the ExecutionPlan intermediate representation:
// the serializable record of every decision a partitioning strategy
// makes — per-kernel partition points, chunk boundaries, device pins,
// dependency chains, the scheduling policy and its warm-up
// configuration, and the synchronization structure — separated from
// the execution that carries it out.
//
// The split buys three things the paper's pipeline wants:
//
//   - inspection: `matchmaker -explain` can diff the winning plan
//     against the runner-up without executing either;
//   - caching: a sweep that varies only compute/trace/metrics settings
//     re-uses one decided plan instead of re-running Glinda profiling;
//   - replay: `hetsim -plan-out` / `-plan-in` round-trips a plan
//     through JSON and reproduces the original run exactly (the
//     simulator is deterministic and the plan pins the whole decision
//     surface).
//
// A plan is immutable once built: Materialize mints fresh task
// instances on every call, so one plan can back concurrent runs.
package plan

import (
	"encoding/json"
	"errors"
	"fmt"

	"heteropart/internal/apierr"
	"heteropart/internal/apps"
	"heteropart/internal/device"
	"heteropart/internal/glinda"
	"heteropart/internal/task"
)

// Version is the serialization format version. Decoders reject plans
// from other versions instead of guessing.
const Version = 1

// Scheduler policies an ExecutionPlan may name.
const (
	// PolicyStatic executes fully pinned plans with zero decision
	// overhead.
	PolicyStatic = "static"
	// PolicyDep is the breadth-first, dependency-chain-aware dynamic
	// policy (DP-Dep).
	PolicyDep = "dep"
	// PolicyPerf is the performance-aware earliest-finish dynamic
	// policy (DP-Perf).
	PolicyPerf = "perf"
)

// SchedulerSpec names the scheduling policy a plan executes under.
type SchedulerSpec struct {
	// Policy is one of the Policy* constants.
	Policy string `json:"policy"`
	// Seeded marks a perf plan whose measured run starts from a
	// trained profile: a training execution (timing-only, discarded)
	// learns the per-kernel per-device rates first, reproducing the
	// paper's excluded profiling phase (Section IV-A3).
	Seeded bool `json:"seeded,omitempty"`
	// WarmupInstances records the perf policy's learning phase length
	// (instances per device before estimates are trusted). Informational.
	WarmupInstances int `json:"warmup_instances,omitempty"`
}

// Chunk is one contiguous piece of a kernel's iteration space,
// submitted as one task instance.
type Chunk struct {
	// Lo and Hi bound the half-open element range [Lo, Hi).
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	// Pin is the device the chunk is pinned to, or task.Unpinned (-1)
	// for dynamic scheduling.
	Pin int `json:"pin"`
	// Chain is the dependency-chain key (-1 for none); dynamic
	// schedulers use it for chain affinity.
	Chain int `json:"chain"`
}

// PhasePlan is the partitioning of one kernel invocation in the
// unrolled program order.
type PhasePlan struct {
	// Kernel names the kernel this phase runs.
	Kernel string `json:"kernel"`
	// Size is the kernel's iteration-space size; chunks must tile
	// [0, Size) exactly.
	Size int64 `json:"size"`
	// Sync marks a taskwait after this phase (the final barrier after
	// the last phase is implicit — every execution ends with results
	// assembled on the host).
	Sync bool `json:"sync,omitempty"`
	// Chunks lists the phase's task instances in submission order.
	Chunks []Chunk `json:"chunks"`
}

// ExecutionPlan is the full decision record for one (application,
// platform, strategy) triple.
type ExecutionPlan struct {
	Version int `json:"version"`
	// App, Class and NeedsSync describe the problem the plan was
	// decided for.
	App       string `json:"app"`
	Strategy  string `json:"strategy"`
	Class     string `json:"class"`
	NeedsSync bool   `json:"needs_sync"`
	// Atomic marks DAG problems whose phases are indivisible task
	// instances: each phase must be exactly one whole-range chunk.
	Atomic bool  `json:"atomic,omitempty"`
	N      int64 `json:"n"`
	Iters  int   `json:"iters"`
	// Devices is the platform's device count (1 + accelerators); pins
	// must stay below it.
	Devices int `json:"devices"`
	// Platform is the fingerprint of the platform the plan was decided
	// on. Executing a plan on a platform with a different fingerprint
	// is refused: the decisions (partition points, pins) are
	// platform-specific.
	Platform  string        `json:"platform"`
	Scheduler SchedulerSpec `json:"scheduler"`
	Phases    []PhasePlan   `json:"phases"`
	// Decisions preserves the Glinda decision per distinct kernel for
	// static strategies (keyed "" for the single/fused decision), so a
	// replayed plan reports the same telemetry as the original run.
	Decisions map[string]glinda.Decision `json:"decisions,omitempty"`
}

// Fingerprint renders the identity of a platform from its contents:
// device models, thread count, and link characteristics. Two platforms
// with equal fingerprints model the same hardware, so plans and cached
// results are interchangeable between them.
func Fingerprint(p *device.Platform) string {
	if p == nil {
		return "(nil)"
	}
	return p.Fingerprint()
}

// Validate checks the plan's internal consistency. The rules:
//
//  1. the format version must match;
//  2. the scheduler policy must be known;
//  3. the device count must include at least the host;
//  4. the plan must have phases and every phase chunks;
//  5. each phase's chunks must tile [0, Size) exactly, in ascending
//     order — no gaps, no overlaps, no empty or out-of-range chunks;
//  6. pins must reference existing devices;
//  7. the static policy cannot place unpinned chunks (they would
//     strand in the central queue);
//  8. atomic phases must be exactly one whole-range chunk.
//
// A failure wraps apierr.ErrPlanInvalid, so callers can test the class
// of error with errors.Is without matching rule text.
func (pl *ExecutionPlan) Validate() error {
	return invalid(pl.validate())
}

// invalid tags a validation/binding failure with the ErrPlanInvalid
// sentinel exactly once.
func invalid(err error) error {
	if err == nil || errors.Is(err, apierr.ErrPlanInvalid) {
		return err
	}
	return fmt.Errorf("%w: %v", apierr.ErrPlanInvalid, err)
}

func (pl *ExecutionPlan) validate() error {
	if pl.Version != Version {
		return fmt.Errorf("plan: unsupported version %d (want %d)", pl.Version, Version)
	}
	switch pl.Scheduler.Policy {
	case PolicyStatic, PolicyDep, PolicyPerf:
	default:
		return fmt.Errorf("plan: unknown scheduler policy %q", pl.Scheduler.Policy)
	}
	if pl.Devices < 1 {
		return fmt.Errorf("plan: platform needs at least the host device, got %d", pl.Devices)
	}
	if len(pl.Phases) == 0 {
		return fmt.Errorf("plan: no phases")
	}
	for i := range pl.Phases {
		ph := &pl.Phases[i]
		if ph.Size <= 0 {
			return fmt.Errorf("plan: phase %d (%s): nonpositive kernel size %d", i, ph.Kernel, ph.Size)
		}
		if len(ph.Chunks) == 0 {
			return fmt.Errorf("plan: phase %d (%s): no chunks", i, ph.Kernel)
		}
		if pl.Atomic && (len(ph.Chunks) != 1 || ph.Chunks[0].Lo != 0 || ph.Chunks[0].Hi != ph.Size) {
			return fmt.Errorf("plan: phase %d (%s): atomic phases must be one whole-range chunk", i, ph.Kernel)
		}
		at := int64(0)
		for j, c := range ph.Chunks {
			if c.Hi <= c.Lo {
				return fmt.Errorf("plan: phase %d (%s) chunk %d: empty range [%d,%d)", i, ph.Kernel, j, c.Lo, c.Hi)
			}
			if c.Lo < at {
				return fmt.Errorf("plan: phase %d (%s) chunk %d: [%d,%d) overlaps the previous chunk ending at %d",
					i, ph.Kernel, j, c.Lo, c.Hi, at)
			}
			if c.Lo > at {
				return fmt.Errorf("plan: phase %d (%s) chunk %d: gap [%d,%d) left uncovered",
					i, ph.Kernel, j, at, c.Lo)
			}
			if c.Hi > ph.Size {
				return fmt.Errorf("plan: phase %d (%s) chunk %d: [%d,%d) outside kernel size %d",
					i, ph.Kernel, j, c.Lo, c.Hi, ph.Size)
			}
			if c.Pin != task.Unpinned && (c.Pin < 0 || c.Pin >= pl.Devices) {
				return fmt.Errorf("plan: phase %d (%s) chunk %d: pinned to unknown device %d (platform has %d)",
					i, ph.Kernel, j, c.Pin, pl.Devices)
			}
			if pl.Scheduler.Policy == PolicyStatic && c.Pin == task.Unpinned {
				return fmt.Errorf("plan: phase %d (%s) chunk %d: unpinned chunk under the static scheduler",
					i, ph.Kernel, j)
			}
			at = c.Hi
		}
		if at != ph.Size {
			return fmt.Errorf("plan: phase %d (%s): chunks cover [0,%d) of size %d", i, ph.Kernel, at, ph.Size)
		}
	}
	return nil
}

// CheckPlatform verifies the plan was decided for this platform. A
// mismatch wraps apierr.ErrPlatformMismatch.
func (pl *ExecutionPlan) CheckPlatform(plat *device.Platform) error {
	if fp := Fingerprint(plat); pl.Platform != fp {
		return fmt.Errorf("plan: %w: decided for platform %q, executing on %q",
			apierr.ErrPlatformMismatch, pl.Platform, fp)
	}
	return nil
}

// Materialize binds the plan to a problem instance and emits a fresh
// task.Plan: every chunk submitted in recorded order (instance IDs —
// and therefore the whole simulation — depend only on the plan), a
// barrier after each Sync phase, and the closing taskwait. The task
// plan is sized from the chunk and barrier counts, so its instances
// come from one slab; it can back several executions in turn (a
// seeded perf plan's training and measured runs share one). Beyond
// Validate it checks the binding: phase count, kernel names and sizes
// must match the problem, and a synchronization the problem requires
// cannot have been dropped (atomic DAG problems order phases through
// the dependency graph instead of barriers).
func (pl *ExecutionPlan) Materialize(p *apps.Problem) (*task.Plan, error) {
	tp, err := pl.materialize(p)
	if err != nil {
		return nil, invalid(err)
	}
	return tp, nil
}

func (pl *ExecutionPlan) materialize(p *apps.Problem) (*task.Plan, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if len(pl.Phases) != len(p.Phases) {
		return nil, fmt.Errorf("plan: decided for %d phases, problem %s has %d",
			len(pl.Phases), p.AppName, len(p.Phases))
	}
	if pl.Atomic != p.AtomicPhases {
		return nil, fmt.Errorf("plan: atomicity mismatch: plan %t, problem %s %t",
			pl.Atomic, p.AppName, p.AtomicPhases)
	}
	last := len(pl.Phases) - 1
	barriers := 1
	for i := range pl.Phases[:last] {
		if pl.Phases[i].Sync {
			barriers++
		}
	}
	tp := task.NewPlan(pl.Instances(), barriers)
	for i := range pl.Phases {
		ph := &pl.Phases[i]
		pp := p.Phases[i]
		if pp.Kernel.Name != ph.Kernel {
			return nil, fmt.Errorf("plan: phase %d runs kernel %q, problem has %q",
				i, ph.Kernel, pp.Kernel.Name)
		}
		if pp.Kernel.Size != ph.Size {
			return nil, fmt.Errorf("plan: phase %d (%s) decided for size %d, problem kernel has %d",
				i, ph.Kernel, ph.Size, pp.Kernel.Size)
		}
		if pp.SyncAfter && !ph.Sync && i < last && !pl.Atomic {
			return nil, fmt.Errorf("plan: phase %d (%s): problem requires synchronization after this phase, plan drops it",
				i, ph.Kernel)
		}
		for _, c := range ph.Chunks {
			tp.Submit(pp.Kernel, c.Lo, c.Hi, c.Pin, c.Chain)
		}
		if ph.Sync && i < last {
			tp.Barrier()
		}
	}
	tp.Barrier()
	if err := tp.Err(); err != nil {
		return nil, err
	}
	return tp, nil
}

// JSON renders the plan as stable, human-readable JSON: fixed field
// order (struct order), sorted map keys, trailing newline. Equal plans
// produce byte-equal encodings.
func (pl *ExecutionPlan) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(pl, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("plan: encode: %w", err)
	}
	return append(b, '\n'), nil
}

// FromJSON decodes a plan and validates it. Both decode and
// validation failures wrap apierr.ErrPlanInvalid.
func FromJSON(data []byte) (*ExecutionPlan, error) {
	var pl ExecutionPlan
	if err := json.Unmarshal(data, &pl); err != nil {
		return nil, invalid(fmt.Errorf("plan: decode: %v", err))
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	return &pl, nil
}

// ElemsByPin totals the planned elements per pinned device across all
// phases; task.Unpinned (-1) collects the dynamically scheduled share.
func (pl *ExecutionPlan) ElemsByPin() map[int]int64 {
	out := make(map[int]int64)
	for _, ph := range pl.Phases {
		for _, c := range ph.Chunks {
			out[c.Pin] += c.Hi - c.Lo
		}
	}
	return out
}

// Instances counts the plan's task instances.
func (pl *ExecutionPlan) Instances() int {
	n := 0
	for _, ph := range pl.Phases {
		n += len(ph.Chunks)
	}
	return n
}
