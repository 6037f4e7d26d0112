package device

import (
	"fmt"
	"sort"

	"heteropart/internal/sim"
)

// Scale is one calibration factor: kernel instances matching
// (Kernel, Device) run Factor× the roofline bound. An empty Kernel
// matches every kernel on the device; Device -1 matches every device.
// The most specific match wins (kernel+device over kernel over
// device).
type Scale struct {
	// Kernel is the kernel name the override applies to ("" = all).
	Kernel string `json:"kernel,omitempty"`
	// Device is the platform device ID (-1 = all).
	Device int `json:"device"`
	// Factor multiplies the roofline bound's duration; it must
	// lie in [MinScaleFactor, MaxScaleFactor]. Factors come from
	// calibration runs: measured / predicted on real hardware.
	Factor float64 `json:"factor"`
}

// The bounds on a Scale's factor. A factor beyond them prices a chunk
// at zero or past what a virtual duration can hold, and turns Glinda's
// split NaN.
const (
	MinScaleFactor = 1e-3
	MaxScaleFactor = 1e3
)

// Validate checks the override can be priced: its device is -1 or an
// ID, and its factor is finite and within [MinScaleFactor,
// MaxScaleFactor]. It is the one factor rule of platform specs and
// calibration reports; failures wrap apierr.ErrPlatformInvalid.
func (s Scale) Validate() error {
	if s.Device < -1 {
		return invalidPlatform("scale %q has invalid device %d", s.Kernel, s.Device)
	}
	if !within(s.Factor, MinScaleFactor, MaxScaleFactor) {
		return invalidPlatform("scale %q on device %d has factor %g outside [%g, %g]",
			s.Kernel, s.Device, s.Factor, MinScaleFactor, MaxScaleFactor)
	}
	return nil
}

// ValidateScales checks a calibration against a platform of the given
// number of devices, host included: there is at least one scale, each
// passes Scale.Validate and names device -1 or a device the platform
// has, and no (kernel, device) pair repeats, so a price never depends
// on the scales' order. It is the one calibration rule of platform
// specs and calibration reports; failures wrap
// apierr.ErrPlatformInvalid.
func ValidateScales(scales []Scale, devices int) error {
	if len(scales) == 0 {
		return invalidPlatform("calibration has no scales")
	}
	seen := make(map[pair]bool, len(scales))
	for _, s := range scales {
		if err := s.Validate(); err != nil {
			return err
		}
		if s.Device >= devices {
			return invalidPlatform("scale %q targets device %d the platform does not have", s.Kernel, s.Device)
		}
		if seen[s.key()] {
			return invalidPlatform("scale %q on device %d repeats", s.Kernel, s.Device)
		}
		seen[s.key()] = true
	}
	return nil
}

// pair is the (kernel, device) a scale matches: its identity within a
// calibration.
type pair struct {
	kernel string
	dev    int
}

func (s Scale) key() pair { return pair{s.Kernel, s.Device} }

// within reports lo <= x <= hi; NaN is within nothing.
func within(x, lo, hi float64) bool { return x >= lo && x <= hi }

// factor resolves the scale for (kernel, device ID) by specificity:
// exact kernel+device, then kernel-only, then device-only, then the
// global scale; 1 when nothing matches.
func factor(scales []Scale, kernel string, dev int) float64 {
	best, bestRank := 1.0, -1
	for _, s := range scales {
		if s.Factor <= 0 {
			continue
		}
		kMatch := s.Kernel == "" || s.Kernel == kernel
		dMatch := s.Device < 0 || s.Device == dev
		if !kMatch || !dMatch {
			continue
		}
		rank := 0
		if s.Kernel != "" {
			rank += 2
		}
		if s.Device >= 0 {
			rank++
		}
		if rank > bestRank {
			best, bestRank = s.Factor, rank
		}
	}
	return best
}

// appendScales renders scales for the platform fingerprint, sorted by
// (kernel, device) so their order never changes the identity.
func appendScales(b []byte, scales []Scale) []byte {
	sorted := append([]Scale(nil), scales...)
	sortScales(sorted)
	for i, s := range sorted {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%s:%d:%g", s.Kernel, s.Device, s.Factor)
	}
	return b
}

func sortScales(scales []Scale) {
	sort.Slice(scales, func(i, j int) bool {
		if scales[i].Kernel != scales[j].Kernel {
			return scales[i].Kernel < scales[j].Kernel
		}
		return scales[i].Device < scales[j].Device
	})
}

// MergeScales combines an existing override set with freshly fitted
// overrides, deterministically: a fitted scale replaces any existing
// one with the same (Kernel, Device) pair, everything else survives.
// Exact-pair replacement leaves no two entries with identical
// specificity patterns competing for the same lookup, so factor
// resolution stays unambiguous. The inputs are untouched; the result
// is sorted by (Kernel, Device) so equal merges are byte-equal.
func MergeScales(old, fitted []Scale) []Scale {
	replaced := make(map[pair]bool, len(fitted))
	out := make([]Scale, 0, len(old)+len(fitted))
	out = append(out, fitted...)
	for _, s := range fitted {
		replaced[s.key()] = true
	}
	for _, s := range old {
		if !replaced[s.key()] {
			out = append(out, s)
		}
	}
	sortScales(out)
	return out
}

// ExecCost prices one executor's run of kernel on d. It is the one
// pricing rule: the runtime's chunk execution, Glinda's probes and
// DP-Perf's estimates all price through it. The price is the roofline
// bound of d's per-executor share of its peaks (a CPU running m worker
// threads gives each thread peak/m), times the most specific of the
// platform's scales matching (kernel, d).
func (p *Platform) ExecCost(d *Device, kernel string, w Work, eff Efficiency) sim.Duration {
	return p.scaled(d, kernel, d.execTime(w, eff, d.shareDiv()))
}

// ExecCostFull prices kernel on d like ExecCost, but with the whole
// device's capability (Share ignored): the base service demand for
// the runtime's processor-sharing host executor.
func (p *Platform) ExecCostFull(d *Device, kernel string, w Work, eff Efficiency) sim.Duration {
	return p.scaled(d, kernel, d.execTime(w, eff, 1))
}

// scaled applies the most specific scale matching (kernel, d) to the
// whole roofline duration t, launch overhead included: calibration
// measures wall time, which does not separate the two. A scaled
// duration past sim.MaxTime saturates there instead of wrapping.
func (p *Platform) scaled(d *Device, kernel string, t sim.Duration) sim.Duration {
	if len(p.Scales) == 0 {
		return t
	}
	f := factor(p.Scales, kernel, d.ID)
	if f == 1 {
		return t
	}
	if s := float64(t) * f; s < float64(sim.MaxTime) {
		return sim.Duration(s)
	}
	return sim.MaxTime
}
