// Package fault is the deterministic fault-injection layer: it lets a
// run perturb the simulated platform — per-device slowdown and jitter,
// transfer stalls and failures, kernel-chunk crashes, device loss, and
// profiling noise — from a serializable, seedable FaultSchedule.
//
// The design constraints mirror the ExecutionPlan IR (DESIGN.md §12):
//
//   - serializable: a schedule is versioned JSON with a byte-stable
//     canonical encoding, so a chaos failure is a one-command repro
//     (`hetsim -fault-in sched.json`) and faulted runs get their own
//     content-addressed cache keys;
//   - deterministic: all randomness (jitter, profiling noise) is a pure
//     hash of (seed, fault index, device, occurrence counter) — no
//     shared PRNG stream — so the same (spec, seed, schedule) triple
//     produces a byte-identical outcome regardless of host scheduling,
//     worker count, or which other faults fire;
//   - typed: every injected failure surfaces as an error wrapping
//     apierr.ErrFaultInjected (device losses additionally wrap
//     apierr.ErrDeviceLost), so callers classify failures with
//     errors.Is and the HTTP service maps them without string
//     matching.
//
// The package is a leaf below rt/strategy/runner: the runtime consults
// an Injector at its existing phase/chunk/transfer boundaries, the
// strategy layer reacts to device loss with a bounded replan, and the
// runner keys its caches on the schedule so faulted runs never alias
// clean ones.
package fault

import (
	"encoding/json"
	"errors"
	"fmt"

	"heteropart/internal/apierr"
)

// ScheduleVersion is the serialization format version. Decoders reject
// schedules from other versions instead of guessing.
const ScheduleVersion = 1

// Fault kinds a schedule may name.
const (
	// KindSlowdown multiplies kernel-execution durations on the target
	// device by Factor (>= 1) from virtual time AfterNs on.
	KindSlowdown = "slowdown"
	// KindJitter perturbs kernel-execution durations on the target
	// device by a deterministic multiplicative noise of relative
	// Amplitude in [0, 1): each occurrence draws its own factor in
	// [1-A, 1+A) from the schedule seed.
	KindJitter = "jitter"
	// KindTransferStall adds ExtraNs to every transfer on the target
	// accelerator's link once the occurrence index reaches After and
	// virtual time reaches AfterNs.
	KindTransferStall = "transfer_stall"
	// KindTransferFail fails the After-th (0-based) transfer on the
	// target accelerator's link with a typed error.
	KindTransferFail = "transfer_fail"
	// KindChunkCrash crashes the After-th (0-based) kernel-chunk
	// execution matching Kernel (empty matches every kernel) with a
	// typed error.
	KindChunkCrash = "chunk_crash"
	// KindDeviceLoss marks the target accelerator lost after After
	// successful uses (chunk starts + transfer starts) and virtual
	// time AfterNs: the next use fails with an error wrapping
	// apierr.ErrDeviceLost, which the strategy layer answers with a
	// bounded replan on the surviving devices. The host (device 0)
	// cannot be lost.
	KindDeviceLoss = "device_loss"
	// KindProfileNoise perturbs the kernel-execution durations of
	// Glinda profiling probes by a deterministic multiplicative noise
	// of relative Amplitude — the measured run is untouched, only the
	// partitioning decision sees a noisy platform.
	KindProfileNoise = "profile_noise"
)

// AnyDevice targets a fault at every device.
const AnyDevice = -1

// Fault is one injected perturbation.
type Fault struct {
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Device is the target platform device ID: 0 is the host, 1..n the
	// accelerators, AnyDevice (-1) every device. Transfer and loss
	// kinds must target an accelerator (>= 1); chunk_crash and
	// profile_noise ignore it.
	Device int `json:"device"`
	// Kernel filters chunk_crash to executions of one kernel; empty
	// matches every kernel.
	Kernel string `json:"kernel,omitempty"`
	// Factor is the slowdown multiplier (>= 1).
	Factor float64 `json:"factor,omitempty"`
	// Amplitude is the relative noise amplitude of jitter and
	// profile_noise, in [0, 1).
	Amplitude float64 `json:"amplitude,omitempty"`
	// After is the occurrence threshold: slowdown/stall activate at
	// occurrence index After, transfer_fail and chunk_crash fire at
	// exactly index After, device_loss allows After successful uses.
	After int64 `json:"after,omitempty"`
	// AfterNs gates the fault to virtual times >= AfterNs.
	AfterNs int64 `json:"after_ns,omitempty"`
	// ExtraNs is the transfer_stall's added latency per transfer.
	ExtraNs int64 `json:"extra_ns,omitempty"`
}

// Schedule is a full fault-injection plan: a seed plus an ordered list
// of faults. The zero schedule (and a nil *Schedule) injects nothing.
type Schedule struct {
	Version int `json:"version"`
	// Seed drives every deterministic noise draw. Two schedules that
	// differ only in seed perturb the same boundaries with different
	// noise.
	Seed   int64   `json:"seed,omitempty"`
	Faults []Fault `json:"faults"`
}

// Bounds on what a schedule may compound into the simulator's int64
// virtual time.
const (
	// maxMultiplier bounds, per device, the product of the slowdown
	// factors and of 1 + amplitude of the jitter and profile noise
	// aimed at it.
	maxMultiplier = 1e3
	// maxStallNs bounds the sum of every transfer_stall's extra_ns.
	maxStallNs = 1e9
)

// Validate checks the schedule's internal consistency: version, known
// kinds, parameter ranges, that transfer/loss faults target an
// accelerator, and that no device's compounded duration multiplier
// exceeds 1e3 and the transfer stalls sum to at most 1e9 ns. A failure
// wraps apierr.ErrFaultInvalid.
func (s *Schedule) Validate() error {
	if err := s.validate(); err != nil {
		if errors.Is(err, apierr.ErrFaultInvalid) {
			return err
		}
		return fmt.Errorf("%w: %v", apierr.ErrFaultInvalid, err)
	}
	return nil
}

func (s *Schedule) validate() error {
	if s.Version != ScheduleVersion {
		return fmt.Errorf("fault: unsupported schedule version %d (want %d)", s.Version, ScheduleVersion)
	}
	if len(s.Faults) == 0 {
		return fmt.Errorf("fault: schedule has no faults")
	}
	for i, f := range s.Faults {
		if f.After < 0 || f.AfterNs < 0 || f.ExtraNs < 0 {
			return fmt.Errorf("fault: fault %d (%s): after, after_ns and extra_ns must be non-negative", i, f.Kind)
		}
		switch f.Kind {
		case KindSlowdown:
			if f.Factor < 1 {
				return fmt.Errorf("fault: fault %d (slowdown): factor %v must be >= 1", i, f.Factor)
			}
			if f.Device < AnyDevice {
				return fmt.Errorf("fault: fault %d (slowdown): unknown device %d", i, f.Device)
			}
		case KindJitter, KindProfileNoise:
			if f.Amplitude < 0 || f.Amplitude >= 1 {
				return fmt.Errorf("fault: fault %d (%s): amplitude %v must be in [0, 1)", i, f.Kind, f.Amplitude)
			}
			if f.Device < AnyDevice {
				return fmt.Errorf("fault: fault %d (%s): unknown device %d", i, f.Kind, f.Device)
			}
		case KindTransferStall:
			if f.ExtraNs <= 0 {
				return fmt.Errorf("fault: fault %d (transfer_stall): extra_ns must be positive", i)
			}
			if f.Device < 1 && f.Device != AnyDevice {
				return fmt.Errorf("fault: fault %d (transfer_stall): must target an accelerator, got device %d", i, f.Device)
			}
		case KindTransferFail:
			if f.Device < 1 && f.Device != AnyDevice {
				return fmt.Errorf("fault: fault %d (transfer_fail): must target an accelerator, got device %d", i, f.Device)
			}
		case KindChunkCrash:
			// Kernel and After select the victim; no device constraint.
		case KindDeviceLoss:
			if f.Device < 1 {
				return fmt.Errorf("fault: fault %d (device_loss): the host cannot be lost, target an accelerator (got device %d)", i, f.Device)
			}
		default:
			return fmt.Errorf("fault: fault %d: unknown kind %q", i, f.Kind)
		}
	}
	return s.checkBounds()
}

// checkBounds refuses a schedule whose perturbations could overflow
// virtual time (see maxMultiplier and maxStallNs). Faults aimed at
// AnyDevice compound with those aimed at each device.
func (s *Schedule) checkBounds() error {
	everyDev, perDev := 1.0, make(map[int]float64)
	var stall int64
	for _, f := range s.Faults {
		var m float64
		switch f.Kind {
		case KindSlowdown:
			m = f.Factor
		case KindJitter, KindProfileNoise:
			m = 1 + f.Amplitude
		case KindTransferStall:
			if f.ExtraNs > maxStallNs-stall {
				return fmt.Errorf("fault: transfer stalls sum past %d ns", int64(maxStallNs))
			}
			stall += f.ExtraNs
			continue
		default:
			continue
		}
		if f.Device == AnyDevice {
			everyDev *= m
		} else {
			perDev[f.Device] = max(perDev[f.Device], 1) * m
		}
	}
	worst := 1.0
	for _, m := range perDev {
		worst = max(worst, m)
	}
	// Negated so that a NaN product is refused too.
	if m := everyDev * worst; !(m <= maxMultiplier) {
		return fmt.Errorf("fault: a device's compounded duration multiplier %g exceeds %g", m, float64(maxMultiplier))
	}
	return nil
}

// JSON renders the schedule as stable, human-readable JSON: fixed
// field order (struct order), trailing newline. Equal schedules
// produce byte-equal encodings.
func (s *Schedule) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("fault: encode schedule: %w", err)
	}
	return append(b, '\n'), nil
}

// Canonical is the compact stable encoding used inside cache keys. A
// nil schedule encodes as "-" so clean and faulted specs can never
// collide.
func (s *Schedule) Canonical() string {
	if s == nil {
		return "-"
	}
	b, err := json.Marshal(s)
	if err != nil {
		// Schedule contains only plain values; Marshal cannot fail.
		return fmt.Sprintf("!%v", err)
	}
	return string(b)
}

// FromJSON decodes a schedule and validates it. Both decode and
// validation failures wrap apierr.ErrFaultInvalid.
func FromJSON(data []byte) (*Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%w: fault: decode schedule: %v", apierr.ErrFaultInvalid, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// WithoutDevice returns a copy of the schedule adjusted for a platform
// that removed the accelerator with the given ID: faults targeting it
// are dropped, and device IDs above it shift down by one so every
// remaining fault stays attached to the same physical device
// (device.Platform.Without renumbers the same way). A schedule left
// with no faults returns nil — the replanned attempt runs clean.
func (s *Schedule) WithoutDevice(id int) *Schedule {
	if s == nil {
		return nil
	}
	out := &Schedule{Version: s.Version, Seed: s.Seed}
	for _, f := range s.Faults {
		if f.Device == id && f.Kind != KindChunkCrash && f.Kind != KindProfileNoise {
			continue
		}
		if f.Device > id {
			f.Device--
		}
		out.Faults = append(out.Faults, f)
	}
	if len(out.Faults) == 0 {
		return nil
	}
	return out
}

// HasKind reports whether the schedule contains a fault of the given
// kind. A nil schedule has none.
func (s *Schedule) HasKind(kind string) bool {
	if s == nil {
		return false
	}
	for _, f := range s.Faults {
		if f.Kind == kind {
			return true
		}
	}
	return false
}
