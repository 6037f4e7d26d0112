package device

import (
	"fmt"
	"sort"
	"strings"

	"heteropart/internal/sim"
)

// CostModel prices kernel work on a device. Every layer that converts
// a (kernel, work) pair into virtual time — the runtime's executor,
// Glinda's profiling probes, DP-Perf's earliest-finish estimates —
// goes through the platform's cost model, so swapping the model
// re-prices the whole decide/execute stack consistently.
//
// Implementations must be deterministic pure functions of their
// arguments and immutable after construction: platforms are shared
// across concurrent runs.
type CostModel interface {
	// Name identifies the model family for reports.
	Name() string
	// ExecTime prices one executor's run of the named kernel on d.
	// div is the share divisor: the number of concurrent executors
	// splitting the device's peak (1 = the whole device). The kernel
	// name lets calibrated models apply per-kernel overrides; models
	// that do not discriminate by kernel ignore it.
	ExecTime(d *Device, kernel string, w Work, eff Efficiency, div float64) sim.Duration
	// Canonical renders the model's identity for platform
	// fingerprints. The default Roofline canonicalizes to the empty
	// string so legacy fingerprints are unchanged; every other model
	// must return a non-empty, content-derived encoding.
	Canonical() string
}

// Roofline is the paper's cost model and the platform default:
//
//	t = max( flops / (effC·peakFLOPS/div), bytes / (effM·peakBW/div) )
//
// plus the device's fixed launch overhead. It ignores the kernel name.
type Roofline struct{}

// Name returns "roofline".
func (Roofline) Name() string { return "roofline" }

// ExecTime evaluates the roofline bound.
func (Roofline) ExecTime(d *Device, kernel string, w Work, eff Efficiency, div float64) sim.Duration {
	return d.execTime(w, eff, div)
}

// Canonical returns "" — the roofline model is the fingerprint
// baseline, so platforms using it render exactly as before the cost
// model became pluggable.
func (Roofline) Canonical() string { return "" }

// Scale is one calibrated override: kernel instances matching
// (Kernel, Device) run Factor× the base model's prediction. An empty
// Kernel matches every kernel on the device; Device -1 matches every
// device. The most specific match wins (kernel+device over kernel
// over device).
type Scale struct {
	// Kernel is the kernel name the override applies to ("" = all).
	Kernel string `json:"kernel,omitempty"`
	// Device is the platform device ID (-1 = all).
	Device int `json:"device"`
	// Factor multiplies the base model's predicted duration; it must
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

// within reports lo <= x <= hi; NaN is within nothing.
func within(x, lo, hi float64) bool { return x >= lo && x <= hi }

// Calibrated wraps a base cost model with per-(kernel, device)
// multiplicative overrides, the mechanism for folding measured
// calibration data into an analytic model without abandoning it.
type Calibrated struct {
	// Base is the model being corrected; nil means Roofline.
	Base CostModel
	// Scales are the overrides. Construction order is irrelevant —
	// matching is by specificity, and the canonical encoding sorts.
	Scales []Scale
}

// Name returns "calibrated(<base>)".
func (c *Calibrated) Name() string { return "calibrated(" + c.base().Name() + ")" }

func (c *Calibrated) base() CostModel {
	if c.Base != nil {
		return c.Base
	}
	return Roofline{}
}

// factor resolves the override for (kernel, device ID) by
// specificity: exact kernel+device, then kernel-only, then
// device-only, then the global override; 1 when nothing matches.
func (c *Calibrated) factor(kernel string, dev int) float64 {
	best, bestRank := 1.0, -1
	for _, s := range c.Scales {
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

// ExecTime prices through the base model, then applies the most
// specific matching override factor to the whole predicted duration
// (launch overhead included — calibration measures wall time, which
// does not separate the two). A scaled duration past sim.MaxTime
// saturates there instead of wrapping.
func (c *Calibrated) ExecTime(d *Device, kernel string, w Work, eff Efficiency, div float64) sim.Duration {
	t := c.base().ExecTime(d, kernel, w, eff, div)
	f := c.factor(kernel, d.ID)
	if f == 1 {
		return t
	}
	if s := float64(t) * f; s < float64(sim.MaxTime) {
		return sim.Duration(s)
	}
	return sim.MaxTime
}

// Canonical renders the model content-deterministically: base
// canonical plus sorted overrides.
func (c *Calibrated) Canonical() string {
	scales := make([]Scale, 0, len(c.Scales))
	scales = append(scales, c.Scales...)
	sort.Slice(scales, func(i, j int) bool {
		if scales[i].Kernel != scales[j].Kernel {
			return scales[i].Kernel < scales[j].Kernel
		}
		return scales[i].Device < scales[j].Device
	})
	var b strings.Builder
	b.WriteString("calibrated[")
	b.WriteString(c.base().Canonical())
	for i, s := range scales {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%d:%g", s.Kernel, s.Device, s.Factor)
	}
	b.WriteByte(']')
	return b.String()
}

// MergeScales combines an existing override set with freshly fitted
// overrides, deterministically: a fitted scale replaces any existing
// one with the same (Kernel, Device) pair, everything else survives.
// Exact-pair replacement leaves no two entries with identical
// specificity patterns competing for the same lookup, so factor
// resolution stays unambiguous. The inputs are untouched; the result
// is sorted by (Kernel, Device) so equal merges are byte-equal.
func MergeScales(old, fitted []Scale) []Scale {
	type pair struct {
		kernel string
		dev    int
	}
	replaced := make(map[pair]bool, len(fitted))
	key := func(s Scale) pair { return pair{s.Kernel, s.Device} }
	out := make([]Scale, 0, len(old)+len(fitted))
	out = append(out, fitted...)
	for _, s := range fitted {
		replaced[key(s)] = true
	}
	for _, s := range old {
		if !replaced[key(s)] {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kernel != out[j].Kernel {
			return out[i].Kernel < out[j].Kernel
		}
		return out[i].Device < out[j].Device
	})
	return out
}

// CostModelOf returns the platform's cost model, defaulting to
// Roofline so pre-refactor platforms (and the zero value) price work
// exactly as before.
func (p *Platform) CostModelOf() CostModel {
	if p.Cost != nil {
		return p.Cost
	}
	return Roofline{}
}

// ExecCost prices one executor's run of kernel on d through the
// platform's cost model, honoring the device's Share (a CPU running m
// worker threads gives each thread peak/m).
func (p *Platform) ExecCost(d *Device, kernel string, w Work, eff Efficiency) sim.Duration {
	return p.CostModelOf().ExecTime(d, kernel, w, eff, d.shareDiv())
}

// ExecCostFull prices kernel on d with the whole device's capability
// (Share ignored) — the base service demand for the runtime's
// processor-sharing host executor.
func (p *Platform) ExecCostFull(d *Device, kernel string, w Work, eff Efficiency) sim.Duration {
	return p.CostModelOf().ExecTime(d, kernel, w, eff, 1)
}
