package calib

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"heteropart/internal/apierr"
	"heteropart/internal/device"
)

// ReportVersion is the CalibrationReport format version.
const ReportVersion = 1

// Report is the versioned, byte-stable calibration artifact: the
// fitted correction factors plus the per-round evidence that produced
// them. It is what hetsim -calibrate-out writes, -calibrate-in reads,
// and POST /v1/calibrate installs.
type Report struct {
	Version int `json:"version"`
	// App is the application the factors were fitted from.
	App string `json:"app"`
	// Platform is the *base* (calibration-free) fingerprint of the
	// platform the report was fitted for. Apply refuses any platform
	// whose base fingerprint differs — correction factors do not
	// transfer across machines (apierr.ErrCalibrationStale).
	Platform string `json:"platform"`
	// Scales are the fitted factors, absolute against the roofline
	// bound, sorted by (kernel, device).
	Scales []device.Scale `json:"scales"`
	// Rounds is the fit evidence, one entry per calibration round (or
	// per ingested bundle for a single-shot fit).
	Rounds []Round `json:"rounds,omitempty"`
}

// Round records one calibration round's evidence.
type Round struct {
	// Round numbers the rounds from 1.
	Round int `json:"round"`
	// Samples is the number of chunk observations the round measured.
	Samples int `json:"samples"`
	// MeanAbsRelErr is the mean |actual - predicted| / predicted over
	// the round's observations, priced with the model the round's plan
	// was decided on — the error the fit then corrects.
	MeanAbsRelErr float64 `json:"mean_abs_rel_err"`
	// MakespanNs is the round's measured makespan.
	MakespanNs int64 `json:"makespan_ns"`
	// Fitted is the round's fitted group evidence.
	Fitted []Entry `json:"fitted,omitempty"`
	// PlanDiff is the plan.Diff against the previous round's plan —
	// what the recalibrated model decided differently. Empty for the
	// first round and for rounds that reproduce the previous plan.
	PlanDiff []string `json:"plan_diff,omitempty"`
}

// Validate checks the report's internal coherence, and its scales
// against device.ValidateScales on any platform. Every refusal wraps
// apierr.ErrPlatformInvalid.
func (r *Report) Validate() error {
	if r == nil {
		return fmt.Errorf("calib: nil report: %w", apierr.ErrPlatformInvalid)
	}
	if r.Version != ReportVersion {
		return fmt.Errorf("calib: report version %d, this build reads %d: %w", r.Version, ReportVersion, apierr.ErrPlatformInvalid)
	}
	if r.Platform == "" {
		return fmt.Errorf("calib: report has no platform fingerprint: %w", apierr.ErrPlatformInvalid)
	}
	// The report names no device count; Apply checks the scales'
	// devices against the platform it is given.
	if err := device.ValidateScales(r.Scales, math.MaxInt); err != nil {
		return fmt.Errorf("calib: report: %w", err)
	}
	return nil
}

// JSON renders the report as stable, human-readable JSON: fixed field
// order, sorted scales, trailing newline. FromJSON ∘ JSON is the
// identity on bytes.
func (r *Report) JSON() ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("calib: encode report: %w", err)
	}
	return append(out, '\n'), nil
}

// FromJSON decodes and validates a serialized CalibrationReport.
// Decode and validation failures wrap apierr.ErrPlatformInvalid.
func FromJSON(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("calib: decode report: %w: %v", apierr.ErrPlatformInvalid, err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Apply returns the platform priced with a copy of the report's
// fitted scales in place of its own, so applying a report *replaces*
// any previous calibration instead of compounding with it. A platform
// whose base fingerprint differs from the one the report was fitted
// for is refused with an error wrapping apierr.ErrCalibrationStale —
// the drift-detection contract the service's per-platform calibration
// state relies on. Scales that break device.ValidateScales on the
// platform, such as one naming a device it lacks, are refused with
// apierr.ErrPlatformInvalid.
func (r *Report) Apply(p *device.Platform) (*device.Platform, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if err := checkSameBase(r.Platform, p); err != nil {
		return nil, err
	}
	if err := device.ValidateScales(r.Scales, 1+len(p.Accels)); err != nil {
		return nil, fmt.Errorf("calib: apply report: %w", err)
	}
	return p.WithScales(append([]device.Scale(nil), r.Scales...)), nil
}

// BaseFingerprint strips the calibration segment from a full platform
// fingerprint, leaving the calibration-free identity a report binds
// to. Fingerprints append that segment last and only when the
// platform has scales, so the prefix before "+cost=" is exactly the
// base fingerprint.
func BaseFingerprint(fp string) string {
	if i := strings.Index(fp, "+cost="); i >= 0 {
		return fp[:i]
	}
	return fp
}
